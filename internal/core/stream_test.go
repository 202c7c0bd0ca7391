package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

func TestStreamMatchesGenerate(t *testing.T) {
	ms := fitToy(t, 40, 2*cp.Hour, 90, FitOptions{})
	opt := GenOptions{NumUEs: 80, Duration: cp.Hour, Seed: 5}
	batch, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	streamed := trace.New()
	err = Stream(ms, opt,
		func(ue cp.UEID, d cp.DeviceType) error { return streamed.SetDevice(ue, d) },
		func(ev trace.Event) error {
			streamed.Events = append(streamed.Events, ev)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed.Device, batch.Device) {
		t.Fatal("device registrations differ")
	}
	if !reflect.DeepEqual(streamed.Events, batch.Events) {
		t.Fatalf("streamed %d events, batch %d; contents differ",
			len(streamed.Events), len(batch.Events))
	}
}

func TestStreamDeliversInOrder(t *testing.T) {
	ms := fitToy(t, 30, 2*cp.Hour, 91, FitOptions{})
	var prev trace.Event
	first := true
	err := Stream(ms, GenOptions{NumUEs: 60, Duration: cp.Hour, Seed: 6}, nil,
		func(ev trace.Event) error {
			if !first && ev.Before(prev) {
				t.Fatalf("out of order: %v after %v", ev, prev)
			}
			prev, first = ev, false
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if first {
		t.Fatal("stream delivered nothing")
	}
}

func TestStreamAbortsOnError(t *testing.T) {
	ms := fitToy(t, 20, cp.Hour, 92, FitOptions{})
	boom := errors.New("boom")
	count := 0
	err := Stream(ms, GenOptions{NumUEs: 30, Duration: cp.Hour, Seed: 7}, nil,
		func(trace.Event) error {
			count++
			if count == 5 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if count != 5 {
		t.Fatalf("delivered %d events after abort", count)
	}
	// Registration errors abort too.
	err = Stream(ms, GenOptions{NumUEs: 5, Duration: cp.Hour, Seed: 7},
		func(cp.UEID, cp.DeviceType) error { return boom },
		func(trace.Event) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("registration err = %v", err)
	}
}

func TestStreamValidatesOptions(t *testing.T) {
	ms := fitToy(t, 10, cp.Hour, 93, FitOptions{})
	if err := Stream(ms, GenOptions{NumUEs: 0, Duration: cp.Hour}, nil, nil); err == nil {
		t.Fatal("NumUEs=0 accepted")
	}
}

func TestSourceMatchesGenerate(t *testing.T) {
	ms := fitToy(t, 40, 2*cp.Hour, 95, FitOptions{})
	opt := GenOptions{NumUEs: 80, Duration: cp.Hour, Seed: 5}
	batch, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes: the source must be re-iterable with identical output.
	for pass := 0; pass < 2; pass++ {
		got, err := trace.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Device, batch.Device) {
			t.Fatalf("pass %d: device registrations differ", pass)
		}
		if !reflect.DeepEqual(got.Events, batch.Events) {
			t.Fatalf("pass %d: collected %d events, batch %d; contents differ",
				pass, len(got.Events), len(batch.Events))
		}
	}
	if _, err := NewSource(ms, GenOptions{NumUEs: 0, Duration: cp.Hour}); err == nil {
		t.Fatal("NewSource accepted NumUEs=0")
	}
}

// TestFitFromGeneratedSource closes the loop: a model refitted directly
// from a generator-backed source — no intermediate trace anywhere —
// matches refitting from the materialized generated trace.
func TestFitFromGeneratedSource(t *testing.T) {
	ms := fitToy(t, 30, 2*cp.Hour, 96, FitOptions{})
	opt := GenOptions{NumUEs: 50, Duration: 2 * cp.Hour, Seed: 9}
	batch, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	refitOpt := FitOptions{Cluster: clusterOptSmall()}
	want, err := Fit(batch, refitOpt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FitStream(src, refitOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqualModels(t, want, got) {
		t.Fatal("FitStream(Source) differs from Fit(Generate)")
	}
}

func bytesEqualModels(t *testing.T, a, b *ModelSet) bool {
	t.Helper()
	return bytes.Equal(modelBytes(t, a), modelBytes(t, b))
}

func TestUEGenIteratorResumable(t *testing.T) {
	// Filling an exhausted generator again delivers nothing and keeps
	// reporting exhaustion, and the interpreted oracle's Next can be
	// called after exhaustion without panicking.
	ms := fitToy(t, 10, cp.Hour, 94, FitOptions{})
	dm := ms.Device(cp.Phone)
	if dm == nil {
		t.Skip("no phone model")
	}
	m, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm := compile(ms, m)
	cd := cm.dev(cp.Phone)
	if cd == nil {
		t.Fatal("compiled model lost the phone device")
	}
	var g ueGen
	g.init(cm, cd, 1, stats.NewRNGVal(1), 0, cp.Hour)
	evs, head := g.fillUntil(trace.NoLimit, nil)
	if head != trace.NoLimit {
		t.Fatalf("drained generator reports a next event at %d", head)
	}
	for i := 0; i < 3; i++ {
		more, head := g.fillUntil(trace.NoLimit, evs[:0])
		if len(more) != 0 || head != trace.NoLimit {
			t.Fatalf("compiled: exhausted generator produced %d events (head %d)", len(more), head)
		}
	}
	it := newUEInterp(m, dm, 1, stats.NewRNG(1), 0, cp.Hour)
	n := 0
	for {
		ev, ok := it.Next()
		if !ok {
			break
		}
		if n >= len(evs) || ev != evs[n] {
			t.Fatalf("interpreted event %d = %v differs from compiled", n, ev)
		}
		n++
	}
	if n != len(evs) {
		t.Fatalf("interpreted %d events, compiled %d", n, len(evs))
	}
	for i := 0; i < 3; i++ {
		if _, ok := it.Next(); ok {
			t.Fatal("interpreted: exhausted iterator produced an event")
		}
	}
}
