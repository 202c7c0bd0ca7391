package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// TestBatchedMatchesStreamed is the identity test on the core engine:
// the parallel Generate assembly, the per-event Source.Scan, and the
// windowed Source.ScanBatches must all yield the same event sequence, and
// writing that sequence batched vs per-event must produce the same bytes
// for both codecs. Beyond seeds × workers it covers the assembly
// window's edges: a Duration shorter than one window, one that is not a
// multiple of it, flush-guard events landing past end, the
// maxEventsPerUE cap, and fn aborting mid-window. Batch and window
// boundaries are implementation details; the trace is the contract.
func TestBatchedMatchesStreamed(t *testing.T) {
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	for _, seed := range []uint64{1, 7, 99} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				opt := GenOptions{NumUEs: 80, StartHour: 5, Duration: 2 * cp.Hour, Seed: seed, Workers: workers}
				checkStreamMatchesGenerate(t, ms, opt, true)
			})
		}
	}
	t.Run("sub-window", func(t *testing.T) {
		opt := GenOptions{NumUEs: 400, StartHour: 9, Duration: 40 * cp.Second, Seed: 3, Workers: 2}
		checkStreamMatchesGenerate(t, ms, opt, true)
	})
	t.Run("ragged", func(t *testing.T) {
		opt := GenOptions{NumUEs: 80, StartHour: 23, Duration: 90*cp.Minute + 17*cp.Second + 3, Seed: 4, Workers: 8}
		checkStreamMatchesGenerate(t, ms, opt, true)
	})
	t.Run("flush-guard", func(t *testing.T) {
		opt := GenOptions{NumUEs: 80, StartHour: 1, Seed: 5, Workers: 2}
		opt.Duration = flushGuardDuration(t, ms, opt)
		checkStreamMatchesGenerate(t, ms, opt, true)
	})
	t.Run("cap", func(t *testing.T) {
		// Free-running HO and TAU every millisecond: a registered UE
		// reaches maxEventsPerUE within ten minutes, mid-window.
		flat := fitFlat(t)
		for _, dm := range flat.Devices {
			if dm == nil {
				continue
			}
			for h := range dm.Hours {
				for c := range dm.Hours[h].Clusters {
					pinFree(&dm.Hours[h].Clusters[c])
				}
				if agg := dm.Hours[h].Aggregate; agg != nil {
					pinFree(agg)
				}
			}
			if dm.Global != nil {
				pinFree(dm.Global)
			}
		}
		opt := GenOptions{NumUEs: 1, StartHour: 0, Duration: cp.Hour, Seed: 2, Workers: 2}
		gen := checkStreamMatchesGenerate(t, flat, opt, false)
		per := map[cp.UEID]int{}
		for _, e := range gen.Events {
			per[e.UE]++
		}
		capped := false
		for ue, n := range per {
			if n > maxEventsPerUE+ueGenMaxPush {
				t.Fatalf("UE %d emitted %d events, past the %d cap", ue, n, maxEventsPerUE)
			}
			capped = capped || n >= maxEventsPerUE
		}
		if !capped {
			t.Fatalf("no UE reached the cap (%v); test is vacuous", per)
		}
	})
	t.Run("abort", func(t *testing.T) {
		src, err := NewSource(ms, GenOptions{NumUEs: 80, StartHour: 5, Duration: 2 * cp.Hour, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		calls := 0
		err = src.ScanBatches(func(b *trace.Batch) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || calls != 2 {
			t.Fatalf("ScanBatches: err = %v after %d calls, want %v after 2", err, calls, boom)
		}
		calls = 0
		err = src.Scan(func(trace.Event) error {
			calls++
			if calls == trace.DefaultBatchSize+7 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || calls != trace.DefaultBatchSize+7 {
			t.Fatalf("Scan: err = %v after %d calls, want %v after %d", err, calls, boom, trace.DefaultBatchSize+7)
		}
	})
}

// checkStreamMatchesGenerate compares Source.Scan and Source.ScanBatches
// with Generate event for event and, when writers is set, the bytes both
// codecs write from either side. It returns the generated trace.
func checkStreamMatchesGenerate(t *testing.T, ms *ModelSet, opt GenOptions, writers bool) *trace.Trace {
	t.Helper()
	gen, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Events) == 0 {
		t.Fatal("generated no events; test is vacuous")
	}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []trace.Event
	if err := src.Scan(func(e trace.Event) error {
		streamed = append(streamed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var batched []trace.Event
	if err := src.ScanBatches(func(b *trace.Batch) error {
		batched = b.AppendTo(batched)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	diffEvents(t, "Scan", streamed, gen.Events)
	diffEvents(t, "ScanBatches", batched, gen.Events)
	if !writers {
		return gen
	}
	// Byte identity through both writers: per-event Copy from the
	// generated trace vs batched CopyBatches from the streaming source.
	for _, codec := range []string{"text", "binary"} {
		mk := func(w *bytes.Buffer) interface {
			trace.EventSink
			Close() error
		} {
			if codec == "text" {
				return trace.NewTextWriter(w)
			}
			return trace.NewStreamWriter(w)
		}
		var perEvent, viaBatches bytes.Buffer
		w1 := mk(&perEvent)
		if err := trace.Copy(w1, gen); err != nil {
			t.Fatal(err)
		}
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}
		w2 := mk(&viaBatches)
		if err := trace.CopyBatches(w2, src); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(perEvent.Bytes(), viaBatches.Bytes()) {
			t.Fatalf("%s: batched source bytes differ from per-event trace bytes", codec)
		}
	}
	return gen
}

func diffEvents(t *testing.T, name string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, Generate produced %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %v, Generate produced %v", name, i, got[i], want[i])
		}
	}
}

// flushGuardDuration returns a Duration for opt whose end falls inside a
// case-1 sub-machine flush, so Generate emits events at or past end.
// Events before end do not depend on end, so the candidates are the
// instants right after two same-UE events one millisecond apart in a
// longer run.
func flushGuardDuration(t *testing.T, ms *ModelSet, opt GenOptions) cp.Millis {
	t.Helper()
	t0 := cp.Millis(opt.StartHour) * cp.Hour
	long := opt
	long.Duration = 3 * cp.Hour
	tr, err := Generate(ms, long)
	if err != nil {
		t.Fatal(err)
	}
	per := tr.PerUE()
	for _, ue := range tr.UEs() {
		evs := per[ue]
		for i := 1; i < len(evs); i++ {
			if evs[i].T != evs[i-1].T+1 {
				continue
			}
			try := opt
			try.Duration = evs[i].T - t0
			got, err := Generate(ms, try)
			if err != nil {
				t.Fatal(err)
			}
			if last := got.Events[len(got.Events)-1]; last.T >= t0+try.Duration {
				return try.Duration
			}
		}
	}
	t.Fatal("no flush-guard overshoot found; test is vacuous")
	return 0
}

// fitFlat fits the flat EMM-ECM "base" model, whose HO and TAU are
// free-running processes.
func fitFlat(t *testing.T) *ModelSet {
	t.Helper()
	ms, err := Fit(toyTrace(t, 60, 3*cp.Hour, 43), FitOptions{
		Machine:      sm.EMMECM(),
		SojournKind:  SojournExp,
		FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
		NoClustering: true,
		Method:       "base",
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// pinFree makes every free-running process of cm fire each millisecond.
func pinFree(cm *ClusterModel) {
	for i := range cm.Free {
		cm.Free[i].Inter = SojournModel{Kind: SojournConst, Value: 0.001}
	}
}

// TestGenerateAllocsPerEvent gates the arena work: the compiled
// end-to-end Generate path must average at most 0.02 heap allocations
// per emitted event (issue target; the measured figure is ~0.002).
func TestGenerateAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	opt := GenOptions{NumUEs: 200, StartHour: 0, Duration: 2 * cp.Hour, Seed: 3, Workers: 1}
	warm, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	events := len(warm.Events)
	if events == 0 {
		t.Fatal("generated no events; test is vacuous")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Generate(ms, opt); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs / %d events = %.5f allocs/event", allocs, events, perEvent)
	if perEvent > 0.02 {
		t.Fatalf("allocs/event = %.5f, want <= 0.02", perEvent)
	}
}

// TestSourceScanBatchesSteadyStateAllocs gates the windowed stream the
// way TestGenerateAllocsPerEvent gates Generate: a whole ScanBatches pass
// may average at most 0.02 heap allocations per event. The per-UE state,
// the window buffer, and its radix scratch are allocated once per pass,
// never per window.
func TestSourceScanBatchesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	src, err := NewSource(ms, GenOptions{NumUEs: 200, StartHour: 0, Duration: 2 * cp.Hour, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	count := func(b *trace.Batch) error {
		events += b.Len()
		return nil
	}
	if err := src.ScanBatches(count); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("generated no events; test is vacuous")
	}
	perPass := events
	allocs := testing.AllocsPerRun(5, func() {
		if err := src.ScanBatches(count); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(perPass)
	t.Logf("%.0f allocs / %d events = %.5f allocs/event", allocs, perPass, perEvent)
	if perEvent > 0.02 {
		t.Fatalf("allocs/event = %.5f, want <= 0.02", perEvent)
	}
}
