package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// baseFitOptions is the Base method's fit (baseline.Options("base")),
// restated here because internal/baseline imports this package.
func baseFitOptions() FitOptions {
	return FitOptions{
		Machine:      sm.EMMECM(),
		SojournKind:  SojournExp,
		FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
		NoClustering: true,
		Method:       "base",
	}
}

// smallFit fits a 3-UE, 1-hour toy trace.
func smallFit(tb testing.TB, opt FitOptions) *ModelSet {
	tb.Helper()
	ms, err := Fit(toyTrace(tb, 3, cp.Hour, 7), opt)
	if err != nil {
		tb.Fatal(err)
	}
	return ms
}

// saved returns the model JSON Save writes.
func saved(tb testing.TB, ms *ModelSet) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := ms.Save(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// anyDevice applies corrupt to each device model in turn until one
// reports that it found something to corrupt.
func anyDevice(corrupt func(dm *DeviceModel) bool) func(ms *ModelSet) bool {
	return func(ms *ModelSet) bool {
		for _, dm := range ms.Devices {
			if dm != nil && corrupt(dm) {
				return true
			}
		}
		return false
	}
}

// TestLoadRejectsCorruptModels corrupts one sojourn in each cluster
// model the generator falls back to, beyond the per-hour clusters: an
// hour aggregate's state sojourn, a device global's transition sojourn,
// and a Base fit's free-process inter-arrival. Load must reject each
// one; before it did, compiling the model for generation panicked on
// the unknown kind. The other cases are models the generator cannot
// index or time: an exponential sojourn whose draws overflow the
// millisecond clock (events at negative times), more device models
// than device types, and a persona naming cluster 32768, past the
// compiled model's int16 cluster index.
func TestLoadRejectsCorruptModels(t *testing.T) {
	ours := smallFit(t, FitOptions{})
	base := smallFit(t, baseFitOptions())
	cases := []struct {
		name    string
		ms      *ModelSet
		want    string
		corrupt func(ms *ModelSet) bool
	}{
		{"aggregate state sojourn", ours, "invalid", anyDevice(func(dm *DeviceModel) bool {
			for h := range dm.Hours {
				if agg := dm.Hours[h].Aggregate; agg != nil {
					for s := range agg.Bottom {
						if sj := agg.Bottom[s].Sojourn; sj != nil {
							sj.Kind = "tabl4"
							return true
						}
					}
				}
			}
			return false
		})},
		{"global transition sojourn", ours, "invalid", anyDevice(func(dm *DeviceModel) bool {
			if dm.Global == nil {
				return false
			}
			for s := range dm.Global.Top {
				if out := dm.Global.Top[s].Out; len(out) > 0 {
					out[0].Sojourn.Kind = "tabl4"
					return true
				}
			}
			return false
		})},
		{"base free inter-arrival", base, "invalid", anyDevice(func(dm *DeviceModel) bool {
			for h := range dm.Hours {
				for c := range dm.Hours[h].Clusters {
					if free := dm.Hours[h].Clusters[c].Free; len(free) > 0 {
						free[0].Inter.Kind = "tabl4"
						return true
					}
				}
			}
			return false
		})},
		{"sojourn past the horizon", ours, "invalid", anyDevice(func(dm *DeviceModel) bool {
			for h := range dm.Hours {
				for c := range dm.Hours[h].Clusters {
					for s := range dm.Hours[h].Clusters[c].Top {
						if out := dm.Hours[h].Clusters[c].Top[s].Out; len(out) > 0 {
							out[0].Sojourn = SojournModel{Kind: SojournExp, Lambda: 1e-300}
							return true
						}
					}
				}
			}
			return false
		})},
		{"more device models than types", ours, "device types", func(ms *ModelSet) bool {
			ms.Devices = append(ms.Devices, ms.Devices[0])
			return true
		}},
		{"cluster past the int16 index", ours, "clusters", anyDevice(func(dm *DeviceModel) bool {
			if len(dm.Hours) == 0 || len(dm.Personas) == 0 {
				return false
			}
			hm := &dm.Hours[0]
			for len(hm.Clusters) <= math.MaxInt16+1 {
				hm.Clusters = append(hm.Clusters, ClusterModel{})
			}
			dm.Personas[0].Cluster[0] = math.MaxInt16 + 1
			return true
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := Load(bytes.NewReader(saved(t, tc.ms)))
			if err != nil {
				t.Fatalf("uncorrupted model does not load: %v", err)
			}
			if !tc.corrupt(ms) {
				t.Fatal("the fit has no such model to corrupt")
			}
			_, err = Load(bytes.NewReader(saved(t, ms)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load of the corrupted model: err = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestDeviceMixBeyondModelDevices asks for a device type past the end
// of a loaded model's device list: generation must refuse with an
// error rather than index past the list.
func TestDeviceMixBeyondModelDevices(t *testing.T) {
	ms := smallFit(t, FitOptions{})
	ms.Devices = ms.Devices[:1]
	loaded, err := Load(bytes.NewReader(saved(t, ms)))
	if err != nil {
		t.Fatal(err)
	}
	mix := make([]float64, cp.NumDeviceTypes)
	mix[cp.NumDeviceTypes-1] = 1
	_, err = NewSource(loaded, GenOptions{NumUEs: 2, Duration: cp.Hour, DeviceMix: mix})
	if err == nil || !strings.Contains(err.Error(), "no such device") {
		t.Errorf("NewSource: err = %v, want a no-such-device error", err)
	}
}
