package trace

import (
	"math/bits"

	"cptraffic/internal/cp"
)

// The canonical event order (Event.Before: time, then UE, then type, all
// ascending and non-negative) is exactly the ascending order of the
// packed integer key
//
//	(T - t0) << (ueBits + typeBits) | UE << typeBits | Type
//
// whenever the three fields' bit widths fit in one uint64. That makes
// trace assembly a non-comparison sort: an LSD radix sort over the packed
// key orders events identically to any Before-based merge or sort —
// equal keys are identical events, so even ties cannot reorder distinct
// records — at O(passes·n) with sequential memory traffic instead of
// O(n log k) comparator work. Generate uses it to assemble per-worker
// event runs, and the streaming sources use it window by window
// (window.go); the key-width check falls back to a comparison sort for
// pathological spans (centuries) or UE ids, which produces the same
// bytes by definition of the key.

// radixBits is the digit width per pass: 2048 counting buckets (8 KB per
// pass histogram) stay L1-resident, and a one-hour ledger workload
// (22-bit span + 11-bit UE + 3-bit type) sorts in four passes.
const radixBits = 11

const radixBuckets = 1 << radixBits

// maxRadixPasses covers a full 64-bit key at radixBits per pass.
const maxRadixPasses = (64 + radixBits - 1) / radixBits

// RadixSortEvents sorts evs in place into canonical (time, UE, type)
// order using an LSD radix sort over the packed key above, with t0 a
// known lower bound on every timestamp (pass 0 when unknown — correct,
// just wider keys). It reports whether the key fit in 64 bits; on false
// evs is left untouched and the caller must sort another way. Any
// timestamp below t0 also reports false.
func RadixSortEvents(evs []Event, t0 cp.Millis) bool {
	_, ok := radixSort(evs, t0, nil)
	return ok
}

// radixSort is RadixSortEvents with a caller-owned scratch slice: tmp is
// grown to len(evs) when shorter and returned for reuse, so a caller
// sorting window after window allocates the scratch once.
func radixSort(evs []Event, t0 cp.Millis, tmp []Event) ([]Event, bool) {
	if len(evs) < 2 {
		return tmp, true
	}
	if len(evs) > 1<<31-1 {
		return tmp, false // int32 bucket counters
	}
	// One validation sweep finds the actual widths, so the fit check is
	// exact rather than worst-case.
	maxDelta := uint64(0)
	maxUE := uint64(0)
	for i := range evs {
		if evs[i].T < t0 {
			return tmp, false
		}
		if d := uint64(evs[i].T - t0); d > maxDelta {
			maxDelta = d
		}
		if u := uint64(evs[i].UE); u > maxUE {
			maxUE = u
		}
	}
	typeBits := uint(bits.Len(uint(cp.NumEventTypes - 1)))
	ueBits := uint(bits.Len64(maxUE))
	tBits := uint(bits.Len64(maxDelta))
	totalBits := tBits + ueBits + typeBits
	if totalBits > 64 {
		return tmp, false
	}
	ueShift := typeBits
	tShift := typeBits + ueBits
	passes := int((totalBits + radixBits - 1) / radixBits)
	if passes == 0 {
		passes = 1
	}

	// All pass histograms are gathered in a single read sweep; the
	// per-pass work is then pure prefix-sum + scatter.
	var hist [maxRadixPasses][radixBuckets]int32
	for i := range evs {
		key := uint64(evs[i].T-t0)<<tShift | uint64(evs[i].UE)<<ueShift | uint64(evs[i].Type)
		for p := 0; p < passes; p++ {
			hist[p][(key>>(uint(p)*radixBits))&(radixBuckets-1)]++
		}
	}
	if cap(tmp) < len(evs) {
		tmp = make([]Event, len(evs))
	}
	tmp = tmp[:len(evs)]
	src, dst := evs, tmp
	for p := 0; p < passes; p++ {
		h := &hist[p]
		sum := int32(0)
		for b := range h {
			c := h[b]
			h[b] = sum
			sum += c
		}
		shift := uint(p) * radixBits
		for i := range src {
			key := uint64(src[i].T-t0)<<tShift | uint64(src[i].UE)<<ueShift | uint64(src[i].Type)
			b := (key >> shift) & (radixBuckets - 1)
			dst[h[b]] = src[i]
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &evs[0] {
		copy(evs, src)
	}
	return tmp, true
}
