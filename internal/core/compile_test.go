package core

import (
	"bytes"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamBytes drives the source through the incremental text writer —
// the CLI -stream path.
func streamBytes(t *testing.T, src trace.EventSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewTextWriter(&buf)
	if err := trace.Copy(tw, src); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompiledMatchesInterpreted is the engine invariant: the compiled
// engine produces byte-identical traces to the interpreted test oracle
// (interp_test.go) for every seed and worker count, through both
// Generate and the streaming Source — on the full two-level model and
// on a flat model whose free-running HO/TAU processes the two-level
// model never exercises.
func TestCompiledMatchesInterpreted(t *testing.T) {
	models := map[string]*ModelSet{
		"ours": fitToy(t, 50, 3*cp.Hour, 42, FitOptions{}),
		"base": fitFlat(t),
	}

	for name, ms := range models {
		for _, seed := range []uint64{1, 7, 99} {
			opt := GenOptions{NumUEs: 80, StartHour: 22, Duration: 3 * cp.Hour, Seed: seed}
			want, err := interpGenerate(ms, opt)
			if err != nil {
				t.Fatal(err)
			}
			wb := traceBytes(t, want)
			for _, workers := range []int{1, 8} {
				opt.Workers = workers
				got, err := Generate(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				if gb := traceBytes(t, got); !bytes.Equal(wb, gb) {
					t.Fatalf("%s seed=%d workers=%d: compiled Generate differs from interpreted (%d vs %d bytes)",
						name, seed, workers, len(gb), len(wb))
				}
				csrc, err := NewSource(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				if sb := streamBytes(t, csrc); !bytes.Equal(wb, sb) {
					t.Fatalf("%s seed=%d workers=%d: compiled stream differs from interpreted", name, seed, workers)
				}
			}
		}
	}
}

// stepper drives a compiled generator through fillUntil one delivery
// time at a time — the window assembler's loop with a window one
// millisecond wide — so each step delivers the events of one instant.
type stepper struct {
	g    *ueGen
	head cp.Millis
	buf  []trace.Event
}

func newStepper(g *ueGen) *stepper {
	return &stepper{g: g, head: g.t0, buf: make([]trace.Event, 0, ueGenQueueCap)}
}

// step delivers the next instant's events into buf, reporting false
// once the generator was already exhausted.
func (s *stepper) step() bool {
	if s.head == trace.NoLimit {
		return false
	}
	s.buf, s.head = s.g.fillUntil(s.head+1, s.buf[:0])
	return true
}

// TestUEGenSteadyStateAllocs is the allocation regression gate: the
// compiled generator's steady-state fill must not allocate at all, and
// the interpreted oracle must stay near zero (it reuses its queue
// backing array; the historical g.queue = g.queue[1:] re-slice leaked
// capacity and re-allocated on every flush). Skipped under the race
// detector, which changes allocation behavior.
func TestUEGenSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ms := fitToy(t, 40, 3*cp.Hour, 44, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm := compile(ms, machine)
	var dev cp.DeviceType = 255
	for d := 0; d < cp.NumDeviceTypes; d++ {
		if cm.devs[d] != nil {
			dev = cp.DeviceType(d)
			break
		}
	}
	if dev == 255 {
		t.Fatal("toy model has no device models")
	}
	const warmup, runs = 2000, 4000
	end := 365 * cp.Day

	measure := func(name string, next func() bool, limit float64) {
		for i := 0; i < warmup; i++ {
			if !next() {
				t.Fatalf("%s: generator exhausted after %d warm-up steps", name, i)
			}
		}
		alive := true
		avg := testing.AllocsPerRun(runs, func() {
			if !next() {
				alive = false
			}
		})
		if !alive {
			t.Fatalf("%s: generator exhausted during measurement", name)
		}
		if avg > limit {
			t.Errorf("%s: steady-state step allocates %.4f allocs/step, want <= %.4f", name, avg, limit)
		}
	}
	var g ueGen
	g.init(cm, cm.dev(dev), 1, stats.NewRNGVal(1), 0, end)
	measure("compiled", newStepper(&g).step, 0)
	it := newUEInterp(machine, ms.Device(dev), 1, stats.NewRNG(1), 0, end)
	measure("interpreted", func() bool { _, ok := it.Next(); return ok }, 0.05)
}
