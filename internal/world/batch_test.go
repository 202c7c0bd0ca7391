package world

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// TestBatchedMatchesStreamed is the world half of the identity test:
// the parallel Generate assembly, the per-event Source.Scan, and the
// windowed Source.ScanBatches must yield the same event sequence, and
// batched vs per-event writes must produce the same bytes for both
// codecs — across seeds × workers, for a Duration shorter than one
// assembly window, one that is not a multiple of it, a non-zero Offset,
// and fn aborting mid-window.
func TestBatchedMatchesStreamed(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				checkStreamMatchesGenerate(t, Options{NumUEs: 90, Duration: 3 * cp.Hour, Seed: seed, Workers: workers})
			})
		}
	}
	t.Run("sub-window", func(t *testing.T) {
		checkStreamMatchesGenerate(t, Options{NumUEs: 2000, Duration: 45 * cp.Second, Offset: 12 * cp.Hour, Seed: 3, Workers: 2})
	})
	t.Run("ragged", func(t *testing.T) {
		checkStreamMatchesGenerate(t, Options{NumUEs: 90, Duration: 100*cp.Minute + 13*cp.Second + 7, Seed: 4, Workers: 8})
	})
	t.Run("offset", func(t *testing.T) {
		checkStreamMatchesGenerate(t, Options{NumUEs: 90, Duration: 2 * cp.Hour, Offset: 17*cp.Hour + 30*cp.Second, Seed: 5, Workers: 2})
	})
	t.Run("abort", func(t *testing.T) {
		src, err := NewSource(Options{NumUEs: 200, Duration: 3 * cp.Hour, Seed: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		calls := 0
		err = src.ScanBatches(func(*trace.Batch) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || calls != 2 {
			t.Fatalf("ScanBatches: err = %v after %d calls, want %v after 2", err, calls, boom)
		}
	})
}

// checkStreamMatchesGenerate compares Source.Scan and Source.ScanBatches
// with Generate event for event, and the bytes both codecs write from
// either side.
func checkStreamMatchesGenerate(t *testing.T, opt Options) {
	t.Helper()
	gen, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(opt)
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
	if len(gen.Events) == 0 {
		t.Fatal("simulated no events; test is vacuous")
	}
	diff := func(name string, got []trace.Event) {
		t.Helper()
		if len(got) != len(gen.Events) {
			t.Fatalf("%s: %d events, Generate produced %d", name, len(got), len(gen.Events))
		}
		for i := range got {
			if got[i] != gen.Events[i] {
				t.Fatalf("%s: event %d = %v, Generate produced %v", name, i, got[i], gen.Events[i])
			}
		}
	}
	diff("Scan", streamed)
	diff("ScanBatches", batched)

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
}

// TestWorldAllocsPerEvent gates the arena work on the simulator's
// end-to-end path: at most 0.02 heap allocations per emitted event.
func TestWorldAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	opt := Options{NumUEs: 200, Duration: 3 * cp.Hour, Seed: 3, Workers: 1}
	warm, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	events := len(warm.Events)
	if events == 0 {
		t.Fatal("simulated no events; test is vacuous")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Generate(opt); err != nil {
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
// way TestWorldAllocsPerEvent gates Generate: a whole ScanBatches pass
// may average at most 0.02 heap allocations per event. The simulator
// slab, the window buffer, and its radix scratch are allocated once per
// pass, never per window.
func TestSourceScanBatchesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	src, err := NewSource(Options{NumUEs: 200, Duration: 3 * cp.Hour, Seed: 3, Workers: 1})
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
		t.Fatal("simulated no events; test is vacuous")
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
