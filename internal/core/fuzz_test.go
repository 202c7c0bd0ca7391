package core

import (
	"bytes"
	"errors"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// partialSeed encodes a PartialFit to bytes for the fuzz seed corpus,
// failing the fuzz setup if construction or encoding breaks.
func partialSeed(f *testing.F, build func(pf *PartialFit)) []byte {
	f.Helper()
	pf, err := NewPartialFit(FitOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if build != nil {
		build(pf)
	}
	var buf bytes.Buffer
	if err := pf.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodePartial feeds arbitrary bytes through the partial-fit
// decoder, seeded with encodings of an empty fit and a small populated
// one. The invariant under test is round-trip stability: any input
// DecodePartial accepts must Encode to bytes that decode and re-encode
// identically — the mergeable-checkpoint protocol (DESIGN.md) depends
// on shards resuming from byte-for-byte reproducible snapshots.
func FuzzDecodePartial(f *testing.F) {
	f.Add(partialSeed(f, nil))
	f.Add(partialSeed(f, func(pf *PartialFit) {
		for ue := cp.UEID(1); ue <= 3; ue++ {
			if err := pf.AddDevice(ue, cp.Phone); err != nil {
				f.Fatal(err)
			}
		}
		events := []trace.Event{
			{T: 10, UE: 1, Type: cp.Attach},
			{T: 20, UE: 2, Type: cp.Attach},
			{T: 900, UE: 1, Type: cp.ServiceRequest},
			{T: 2500, UE: 1, Type: cp.S1ConnRelease},
			{T: 4000, UE: 2, Type: cp.TrackingAreaUpdate},
		}
		for _, e := range events {
			if err := pf.AddEvent(e); err != nil {
				f.Fatal(err)
			}
		}
	}))
	f.Add([]byte{})
	f.Add([]byte("cppf"))

	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not crash
		}
		var out1 bytes.Buffer
		if err := pf.Encode(&out1); err != nil {
			t.Fatalf("accepted partial fit does not encode: %v", err)
		}
		pf2, err := DecodePartial(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("encoded partial fit does not re-decode: %v", err)
		}
		var out2 bytes.Buffer
		if err := pf2.Encode(&out2); err != nil {
			t.Fatalf("re-decoded partial fit does not encode: %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("encode not stable across a round trip: %d bytes vs %d bytes",
				out1.Len(), out2.Len())
		}
	})
}

// loadFuzzEvents caps the events FuzzLoadModel scans per accepted model.
// A valid model with zero sojourns can legitimately emit maxEventsPerUE
// events per UE, far more than one fuzz execution can afford.
const loadFuzzEvents = 4096

var errEnoughEvents = errors.New("enough events")

// FuzzLoadModel feeds arbitrary bytes through the model loader, seeded
// with a small saved fit of the paper method and one of the Base
// method. A model Load rejects only has to not crash; a model it
// accepts must compile and generate: a 2-UE, 1-hour source is scanned
// for up to loadFuzzEvents events, each of a known type and inside the
// generated hour.
func FuzzLoadModel(f *testing.F) {
	f.Add(saved(f, smallFit(f, FitOptions{})))
	f.Add(saved(f, smallFit(f, baseFitOptions())))
	f.Add([]byte(`{"machine":"EMM-ECM","devices":[]}`))
	// A global free process without an inter-arrival model: Load once
	// accepted it and compiling it for generation panicked.
	f.Add([]byte(`{"machine":"EMM-ECM","devices":[{"global":{"free":[{}]},"share":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not crash
		}
		opt := GenOptions{NumUEs: 2, Duration: cp.Hour, Seed: 1}
		src, err := NewSource(ms, opt)
		if err != nil {
			return // e.g. no device has a positive share
		}
		n := 0
		err = src.ScanBatches(func(b *trace.Batch) error {
			for i := 0; i < b.Len(); i++ {
				e := b.At(i)
				if !e.Type.Valid() || e.T < 0 || e.T >= opt.Duration {
					t.Fatalf("generated event %+v outside the model's event types or the hour", e)
				}
			}
			if n += b.Len(); n >= loadFuzzEvents {
				return errEnoughEvents
			}
			return nil
		})
		if err != nil && !errors.Is(err, errEnoughEvents) {
			t.Fatalf("accepted model does not generate: %v", err)
		}
	})
}
