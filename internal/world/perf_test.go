package world

import (
	"bytes"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// TestWorldGenerationEquivalence pins the simulator's byte-level
// determinism across the generation matrix: for each seed, the
// in-memory trace is identical for every worker count, and the
// streaming Source path renders to the same text bytes.
func TestWorldGenerationEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		var ref []byte
		for _, workers := range []int{1, 8} {
			opt := Options{NumUEs: 120, Duration: 5 * cp.Hour, Seed: seed, Workers: workers}
			tr, err := Generate(opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := trace.WriteTrace(&buf, tr); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			if ref == nil {
				ref = b
			} else if !bytes.Equal(ref, b) {
				t.Fatalf("seed=%d workers=%d: worker count changed the trace bytes", seed, workers)
			}

			src, err := NewSource(opt)
			if err != nil {
				t.Fatal(err)
			}
			var sbuf bytes.Buffer
			tw := trace.NewTextWriter(&sbuf)
			if err := trace.Copy(tw, src); err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, sbuf.Bytes()) {
				t.Fatalf("seed=%d workers=%d: streamed source differs from in-memory trace", seed, workers)
			}
		}
	}
}

// TestUESimSteadyStateAllocs pins the simulator's hot loop at zero
// steady-state allocations (the queue reuses its backing array): each
// step fills the events of one instant, the window assembler's loop with
// a window one millisecond wide. Skipped under the race detector, which
// changes allocation behavior.
func TestUESimSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	opt := Options{NumUEs: 1, Duration: 365 * cp.Day, Seed: 5}
	mix, err := resolveMix(opt)
	if err != nil {
		t.Fatal(err)
	}
	rng, dev := simPlan(mix, stats.NewRNG(opt.Seed), 0)
	var sim ueSim
	sim.init(opt, 0, dev, rng)
	buf := make([]trace.Event, 0, 64)
	head := opt.Offset
	step := func() bool {
		if head == trace.NoLimit {
			return false
		}
		buf, head = sim.fillUntil(head+1, buf[:0])
		return true
	}
	const warmup, runs = 2000, 4000
	for i := 0; i < warmup; i++ {
		if !step() {
			t.Fatalf("simulator exhausted after %d warm-up steps", i)
		}
	}
	alive := true
	avg := testing.AllocsPerRun(runs, func() {
		if !step() {
			alive = false
		}
	})
	if !alive {
		t.Fatal("simulator exhausted during measurement")
	}
	if avg > 0 {
		t.Errorf("steady-state step allocates %.4f allocs/step, want 0", avg)
	}
}
