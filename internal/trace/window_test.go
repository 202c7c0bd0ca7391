package trace

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// sliceStreams is a FillFunc over pre-built per-stream event slices, each
// non-decreasing in time: stream i delivers its events below the limit
// and reports the next one's time.
type sliceStreams struct {
	evs   [][]Event
	calls atomic.Int64 // fills run concurrently across stripes
}

func (s *sliceStreams) fill(i int, limit cp.Millis, dst []Event) ([]Event, cp.Millis) {
	s.calls.Add(1)
	evs := s.evs[i]
	n := 0
	for n < len(evs) && evs[n].T < limit {
		n++
	}
	dst = append(dst, evs[:n]...)
	s.evs[i] = evs[n:]
	if n < len(evs) {
		return dst, evs[n].T
	}
	return dst, NoLimit
}

// randomStreams builds k per-UE streams over [t0, t0+span), each sorted.
// With a positive overshoot every stream also ends with an event up to
// overshoot ms past t0+span, like the generator's flush guard.
func randomStreams(r *stats.RNG, k, perStream int, t0, span, overshoot cp.Millis) [][]Event {
	out := make([][]Event, k)
	for i := range out {
		n := r.Intn(perStream + 1)
		evs := make([]Event, n)
		for j := range evs {
			evs[j] = Event{
				T:    t0 + cp.Millis(r.Intn(int(span))),
				UE:   cp.UEID(i),
				Type: cp.EventType(r.Intn(cp.NumEventTypes)),
			}
		}
		if overshoot > 0 {
			evs = append(evs, Event{T: t0 + span + cp.Millis(r.Intn(int(overshoot))), UE: cp.UEID(i), Type: cp.S1ConnRelease})
		}
		tr := Trace{Events: evs}
		tr.Sort()
		out[i] = tr.Events
	}
	return out
}

// TestAssembleWindowsMatchesSort pins the windowed assembly to a
// comparison sort of all events, for every worker count, for spans
// shorter than one window, spans that are not a multiple of it, a
// non-zero start, events past end (drained by the last window), and
// heavy duplicate collisions; batches are full except the last.
func TestAssembleWindowsMatchesSort(t *testing.T) {
	r := stats.NewRNG(42)
	cases := []struct {
		name            string
		k, per          int
		t0, span, overs cp.Millis
	}{
		{"empty", 0, 0, 0, cp.Hour, 0},
		{"silent", 5, 0, 0, cp.Hour, 0},
		{"sub-window", 30, 40, 0, 30 * cp.Second, 0},
		{"ragged", 50, 200, 0, 7*assemblyWindow + 17*cp.Second + 3, 0},
		{"start-hour", 40, 150, 18 * cp.Hour, cp.Hour, 0},
		{"past-end", 40, 150, 5 * cp.Hour, 3 * assemblyWindow, 8},
		{"dupes", 3, 2000, 0, 50, 0},
	}
	for _, tc := range cases {
		streams := randomStreams(r, tc.k, tc.per, tc.t0, tc.span, tc.overs)
		var all []Event
		for _, s := range streams {
			all = append(all, s...)
		}
		want := Trace{Events: all}
		want.Sort()
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				src := &sliceStreams{evs: append([][]Event(nil), streams...)}
				var got []Event
				var sizes []int
				err := AssembleWindows(tc.k, workers, tc.t0, tc.t0+tc.span, src.fill, func(b *Batch) error {
					got = b.AppendTo(got)
					sizes = append(sizes, b.Len())
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Events) == 0 && len(got) == 0 {
					return
				}
				if !reflect.DeepEqual(got, want.Events) {
					t.Fatalf("assembled %d events differ from the sorted %d", len(got), len(want.Events))
				}
				for i, n := range sizes[:len(sizes)-1] {
					if n != DefaultBatchSize {
						t.Fatalf("batch %d holds %d events, want %d (only the last may be short)", i, n, DefaultBatchSize)
					}
				}
			})
		}
	}
}

// TestAssembleWindowsSkipsIdleStreams pins the head-time skip: a stream
// is filled only in windows where it has an event due (plus the first
// window, which learns every head), so sparse streams cost nothing.
func TestAssembleWindowsSkipsIdleStreams(t *testing.T) {
	const k = 100
	streams := make([][]Event, k)
	for i := range streams {
		streams[i] = []Event{{T: cp.Millis(i) * assemblyWindow, UE: cp.UEID(i)}}
	}
	src := &sliceStreams{evs: streams}
	if err := AssembleWindows(k, 1, 0, k*assemblyWindow, src.fill, func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Stream 0 is drained in the first window; every other stream is
	// visited twice: once to learn its head, once when it falls due.
	if want := int64(1 + 2*(k-1)); src.calls.Load() != want {
		t.Fatalf("fill called %d times, want %d", src.calls.Load(), want)
	}
}

// TestAssembleWindowsAbortsOnError pins that fn's first error, returned
// mid-window, ends the assembly with no further calls.
func TestAssembleWindowsAbortsOnError(t *testing.T) {
	r := stats.NewRNG(9)
	streams := randomStreams(r, 20, 400, 0, 3*assemblyWindow, 0)
	boom := errors.New("boom")
	calls := 0
	src := &sliceStreams{evs: streams}
	err := AssembleWindows(len(streams), 2, 0, 3*assemblyWindow, src.fill, func(*Batch) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
}
