package experiments

import (
	"sync"
	"testing"

	"cptraffic/internal/core"
	"cptraffic/internal/trace"
)

// TestLabConcurrentAccess drives one fresh Lab from several goroutines
// at once: every accessor must build its fixture once under the lab's
// mutex and hand every caller the same cached value. Under -race (the
// package is in the Makefile's RACE_PKGS) this is the runtime check of
// the lock discipline on the Lab cache.
func TestLabConcurrentAccess(t *testing.T) {
	lab := NewLab(Config{
		TrainUEs:     60,
		Days:         1,
		Scenario1UEs: 40,
		Scenario2UEs: 40,
		BusyHour:     18,
		ThetaN:       30,
		Seed:         11,
	})
	type got struct {
		train, real, gen *trace.Trace
		ours             *core.ModelSet
	}
	const callers = 4
	res := make([]got, callers)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(r *got) {
			defer wg.Done()
			var err error
			if r.train, err = lab.Train(); err != nil {
				t.Error(err)
				return
			}
			if r.real, err = lab.RealScenario(1); err != nil {
				t.Error(err)
				return
			}
			models, err := lab.Models()
			if err != nil {
				t.Error(err)
				return
			}
			r.ours = models["ours"]
			if r.gen, err = lab.Generated("ours", 1); err != nil {
				t.Error(err)
			}
		}(&res[i])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	first := res[0]
	if first.train == nil || first.real == nil || first.ours == nil || first.gen == nil {
		t.Fatalf("lab returned a nil fixture: %+v", first)
	}
	for i, r := range res[1:] {
		if r != first {
			t.Errorf("caller %d got different fixtures than caller 0: %+v vs %+v", i+1, r, first)
		}
	}
}
