package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestKaplanMeierNoCensoring(t *testing.T) {
	fired := []float64{1, 2, 3, 4, 5}
	q, tail, ok := KaplanMeier(fired, nil)
	if !ok {
		t.Fatal("not ok")
	}
	if tail != 0 {
		t.Fatalf("tail = %v, want 0", tail)
	}
	// Without censoring KM is the empirical distribution.
	if q.Quantile(0) != 1 || q.Quantile(1) != 5 {
		t.Fatalf("endpoints = %v, %v", q.Quantile(0), q.Quantile(1))
	}
	if med := q.Quantile(0.5); med < 2 || med > 4 {
		t.Fatalf("median = %v", med)
	}
}

func TestKaplanMeierAllCensored(t *testing.T) {
	if _, tail, ok := KaplanMeier(nil, []float64{1, 2}); ok || tail != 1 {
		t.Fatal("all-censored should be not-ok with tail 1")
	}
}

func TestKaplanMeierKnownValues(t *testing.T) {
	// Classic worked example: events at 1, 3; censored at 2, 4.
	// n=4 at risk at t=1: S=3/4. At t=3, at risk = {3,4}: S=3/4 * 1/2 = 3/8.
	q, tail, ok := KaplanMeier([]float64{1, 3}, []float64{2, 4})
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(tail-0.375) > 1e-12 {
		t.Fatalf("tail = %v, want 0.375", tail)
	}
	// Conditional CDF: F(1) = 0.25/0.625 = 0.4, F(3) = 1.
	if got := q.CDF(1); math.Abs(got-0.4) > 0.05 {
		t.Fatalf("F(1) = %v, want ~0.4", got)
	}
	if got := q.CDF(3); got != 1 {
		t.Fatalf("F(3) = %v", got)
	}
}

func TestKaplanMeierRecoversMarginalUnderCensoring(t *testing.T) {
	// Event times ~ Exp(1), censor times ~ Exp(0.5) independent. The KM
	// estimate of the event marginal should be close to Exp(1) in spite
	// of heavy censoring.
	r := NewRNG(31)
	var fired, censored []float64
	for i := 0; i < 30000; i++ {
		e := r.Exp(1)
		c := r.Exp(0.5)
		if e <= c {
			fired = append(fired, e)
		} else {
			censored = append(censored, c)
		}
	}
	q, tail, ok := KaplanMeier(fired, censored)
	if !ok {
		t.Fatal("not ok")
	}
	truth := Exponential{Lambda: 1}
	// Compare the conditional-given-finite KM quantiles against the
	// truth conditioned at the same mass: F_cond(t) = F(t)/(1-tail).
	fMax := 1 - tail
	for p := 0.05; p < 0.9; p += 0.1 {
		got := q.Quantile(p)
		want := truth.Quantile(p * fMax)
		if math.Abs(got-want) > 0.12*want+0.03 {
			t.Fatalf("p=%v: KM %v vs truth %v (tail %v)", p, got, want, tail)
		}
	}
	// Naive fitting on uncensored only would give a much smaller median.
	naive := NewEmpirical(fired)
	if naive.Quantile(0.5) >= q.Quantile(0.5) {
		t.Fatal("KM should shift mass right of the naive uncensored fit")
	}
}

func TestKaplanMeierTiesHandled(t *testing.T) {
	// Event and censoring at the same time: censored unit still at risk.
	// n=3 at t=1 (1 event): S = 2/3. Then censored at 1 and 2 -> tail 2/3.
	_, tail, ok := KaplanMeier([]float64{1}, []float64{1, 2})
	if !ok {
		t.Fatal("not ok")
	}
	if math.Abs(tail-2.0/3) > 1e-12 {
		t.Fatalf("tail = %v, want 2/3", tail)
	}
}

func TestCensoredExpMLE(t *testing.T) {
	// lambda = events / total time.
	l, ok := CensoredExpMLE([]float64{1, 2}, []float64{3})
	if !ok || math.Abs(l-2.0/6) > 1e-12 {
		t.Fatalf("lambda = %v, ok=%v", l, ok)
	}
	if _, ok := CensoredExpMLE(nil, []float64{1}); ok {
		t.Fatal("no events accepted")
	}
	if _, ok := CensoredExpMLE([]float64{0}, nil); ok {
		t.Fatal("zero total time accepted")
	}
	if _, ok := CensoredExpMLE([]float64{-1, 2}, nil); ok {
		t.Fatal("negative time accepted")
	}
}

func TestCensoredExpMLERecoversRate(t *testing.T) {
	r := NewRNG(33)
	var fired, censored []float64
	for i := 0; i < 30000; i++ {
		e := r.Exp(2)
		c := r.Exp(1)
		if e <= c {
			fired = append(fired, e)
		} else {
			censored = append(censored, c)
		}
	}
	l, ok := CensoredExpMLE(fired, censored)
	if !ok || math.Abs(l-2) > 0.05 {
		t.Fatalf("lambda = %v", l)
	}
}

// kaplanMeierReference is the comparison-sort KaplanMeier the merge walk
// replaced, kept as the oracle: one (t, event) list sorted by time with
// events before censorings at ties, grouped by time.
func kaplanMeierReference(fired, censored []float64) (q *QuantileTable, tail float64, ok bool) {
	if len(fired) == 0 {
		return nil, 1, false
	}
	type obs struct {
		t     float64
		event bool
	}
	all := make([]obs, 0, len(fired)+len(censored))
	for _, t := range fired {
		all = append(all, obs{t, true})
	}
	for _, t := range censored {
		all = append(all, obs{t, false})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		return all[i].event && !all[j].event
	})
	n := len(all)
	type step struct {
		t float64
		F float64
	}
	var steps []step
	S := 1.0
	i := 0
	for i < n {
		t := all[i].t
		d := 0
		j := i
		for j < n && all[j].t == t {
			if all[j].event {
				d++
			}
			j++
		}
		atRisk := n - i
		if d > 0 {
			S *= 1 - float64(d)/float64(atRisk)
			steps = append(steps, step{t: t, F: 1 - S})
		}
		i = j
	}
	tail = S
	fMax := 1 - S
	if fMax <= 0 {
		return nil, 1, false
	}
	points := DefaultQuantilePoints
	qv := make([]float64, points)
	si := 0
	for k := 0; k < points; k++ {
		p := float64(k) / float64(points-1) * fMax
		for si < len(steps)-1 && steps[si].F < p {
			si++
		}
		qv[k] = steps[si].t
	}
	qv[0] = steps[0].t
	qv[points-1] = steps[len(steps)-1].t
	return &QuantileTable{Q: qv}, tail, true
}

// TestKaplanMeierMatchesReference pins the merge walk to the
// comparison-sort oracle bit for bit: the quantile table, the tail and
// ok, over random inputs with fired/censored ties, duplicate times,
// zeros, empty censored lists and all-censored-after-the-last-event
// tails.
func TestKaplanMeierMatchesReference(t *testing.T) {
	r := NewRNG(41)
	grid := func(n, levels int) []float64 {
		// Times on a coarse grid, so duplicates and cross-list ties
		// are common; level 0 is an exact zero.
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(r.Intn(levels)) * 0.25
		}
		return out
	}
	cont := func(n int, rate float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Exp(rate)
		}
		return out
	}
	type tc struct {
		name            string
		fired, censored []float64
	}
	cases := []tc{
		{"empty", nil, nil},
		{"all-censored", nil, []float64{1, 2}},
		{"one-fired", []float64{3}, nil},
		{"zeros", []float64{0, 0, 1}, []float64{0}},
		{"tie-fired-censored", []float64{1, 1, 2}, []float64{1, 2, 2}},
		{"censored-after-last-event", []float64{1, 2}, []float64{3, 4, 5}},
		{"censored-before-first-event", []float64{5, 6}, []float64{1, 2}},
		{"descending-input", []float64{9, 7, 5, 3}, []float64{8, 6, 4, 2}},
	}
	for i := 0; i < 200; i++ {
		nf, nc := r.Intn(300), r.Intn(300)
		if i%5 == 0 {
			nc = 0
		}
		if i%2 == 0 {
			levels := 1 + r.Intn(40)
			cases = append(cases, tc{fmt.Sprintf("grid-%d", i), grid(nf, levels), grid(nc, levels)})
		} else {
			cases = append(cases, tc{fmt.Sprintf("exp-%d", i), cont(nf, 1), cont(nc, 0.5)})
		}
	}
	for _, c := range cases {
		firedIn := append([]float64(nil), c.fired...)
		censoredIn := append([]float64(nil), c.censored...)
		q, tail, ok := KaplanMeier(c.fired, c.censored)
		wq, wtail, wok := kaplanMeierReference(c.fired, c.censored)
		if ok != wok || math.Float64bits(tail) != math.Float64bits(wtail) {
			t.Fatalf("%s: (tail %v, ok %v), reference (tail %v, ok %v)", c.name, tail, ok, wtail, wok)
		}
		if (q == nil) != (wq == nil) {
			t.Fatalf("%s: table %v, reference %v", c.name, q, wq)
		}
		if q != nil {
			if len(q.Q) != len(wq.Q) {
				t.Fatalf("%s: %d quantiles, reference %d", c.name, len(q.Q), len(wq.Q))
			}
			for k := range q.Q {
				if math.Float64bits(q.Q[k]) != math.Float64bits(wq.Q[k]) {
					t.Fatalf("%s: Q[%d] = %v, reference %v", c.name, k, q.Q[k], wq.Q[k])
				}
			}
		}
		for k := range firedIn {
			if math.Float64bits(c.fired[k]) != math.Float64bits(firedIn[k]) {
				t.Fatalf("%s: KaplanMeier reordered its fired input", c.name)
			}
		}
		for k := range censoredIn {
			if math.Float64bits(c.censored[k]) != math.Float64bits(censoredIn[k]) {
				t.Fatalf("%s: KaplanMeier reordered its censored input", c.name)
			}
		}
	}
}
