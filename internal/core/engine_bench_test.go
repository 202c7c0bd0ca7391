package core

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// BenchmarkEngineStep isolates the steady-state cost of one generated
// event in each engine — no sorting, no trace assembly —
// so the compiled/interpreted ratio here is the pure stepping speedup
// that BenchmarkGenerateThroughput (root package) then reports diluted
// by the shared pipeline overhead.
func BenchmarkEngineStep(b *testing.B) {
	ms := fitToy(b, 50, 3*cp.Hour, 42, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		b.Fatal(err)
	}
	cm := compile(ms, machine)
	cd := cm.dev(cp.Phone)
	dm := ms.Devices[cp.Phone]
	const window = 365 * cp.Day
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		seed := uint64(1)
		var g ueGen
		g.init(cm, cd, 1, stats.NewRNGVal(seed), 0, window)
		st := newStepper(&g)
		for i := 0; i < b.N; i++ {
			if !st.step() {
				seed++
				g.init(cm, cd, 1, stats.NewRNGVal(seed), 0, window)
				st = newStepper(&g)
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		seed := uint64(1)
		g := newUEInterp(machine, dm, 1, stats.NewRNG(seed), 0, window)
		for i := 0; i < b.N; i++ {
			if _, ok := g.Next(); !ok {
				seed++
				g = newUEInterp(machine, dm, 1, stats.NewRNG(seed), 0, window)
			}
		}
	})
}
