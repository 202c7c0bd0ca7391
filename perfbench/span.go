package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// offsets from the start of the run; Parent is the id of the enclosing
// span (-1 at the root). Spans of one job share Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps a job's spans in memory until the job ends. A nil
// tracer records nothing, so untraced jobs pay one nil check per
// boundary.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // ids of the spans not yet ended, innermost last
}

func newTracer(run string, t0 time.Time) *tracer {
	return &tracer{run: run, t0: t0}
}

// begin opens a span named name inside the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.t0).Seconds()
	t.open = t.open[:n]
}

// selfTimes returns each span name's total self time: the span's
// duration minus the part its child spans cover. Children of one span
// never overlap, because every wrapped call runs on the caller's
// goroutine.
func selfTimes(spans []span) map[string]float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// writeShareTable prints each layer's self time as a share of the
// job's wall time, largest first.
func writeShareTable(w io.Writer, workload string, self map[string]float64, wall float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%s: layer self time, median traced job, wall %.3f s\n", workload, wall)
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %9.4f s  %5.1f%%\n", n, self[n], 100*self[n]/wall)
	}
}
