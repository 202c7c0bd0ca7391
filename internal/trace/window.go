package trace

import (
	"math"
	"sort"

	"cptraffic/internal/cp"
	"cptraffic/internal/par"
)

// assemblyWindow is the span of time AssembleWindows collects from every
// per-UE stream before sorting. At the 100k-UE, one-hour generation
// workload (~2.1M events) a one-minute window holds ~36k events (~580 KB),
// so the window buffer and its radix scratch stay near cache size and
// the packed key (16-bit span, 17-bit UE, 3-bit type) sorts in four
// 11-bit passes. Shorter windows walk every UE's head time more often
// for fewer events; longer ones grow the buffer (and peak memory) and
// delay the first batch.
const assemblyWindow = cp.Minute

// NoLimit is the fill limit that drains a stream completely.
const NoLimit = cp.Millis(math.MaxInt64)

// FillFunc advances per-UE stream i: it appends every not yet delivered
// event of the stream with T < limit to dst, in order, and returns the
// extended dst together with the time of the stream's next undelivered
// event, or NoLimit once the stream is exhausted. Each stream's times
// must be non-decreasing.
type FillFunc func(i int, limit cp.Millis, dst []Event) ([]Event, cp.Millis)

// AssembleWindows merges n independent per-UE streams, whose events all
// lie at or after t0, into canonical order and delivers it to fn in
// reused DefaultBatchSize batches. It is the streaming counterpart of
// radix-sorting a whole generated trace: for consecutive windows
// [w, w+assemblyWindow) from t0, every stream with an event due before
// the window's end appends its events to one window buffer, which is
// radix-sorted on the packed key (radix.go) and emitted. A head-time
// array skips streams with nothing due without touching their state.
// The window reaching end drains every stream with no upper limit, so
// events a stream places past end (the generator's flush guard) are
// still delivered. Memory is the head-time array plus one window.
//
// The fill is split into contiguous stream stripes over par.Do(workers).
// Because the sort key is a total order on events, the output is the
// same for every worker count. fn's first error aborts the assembly and
// is returned; the *Batch passed to fn is reused.
func AssembleWindows(n, workers int, t0, end cp.Millis, fill FillFunc, fn func(*Batch) error) error {
	if n == 0 {
		return nil
	}
	workers = par.Workers(workers, n)
	next := make([]cp.Millis, n)
	for i := range next {
		next[i] = t0 // every stream's first event is at or after t0
	}
	stripes := make([][]Event, workers)
	var limit cp.Millis
	fillStripe := func(s int) {
		dst := stripes[s][:0]
		for i := s * n / workers; i < (s+1)*n/workers; i++ {
			if next[i] < limit {
				dst, next[i] = fill(i, limit, dst)
			}
		}
		stripes[s] = dst
	}
	var joined, tmp []Event
	out := NewBatch(DefaultBatchSize)
	for w := t0; ; w += assemblyWindow {
		limit = w + assemblyWindow
		last := limit >= end
		if last {
			limit = NoLimit
		}
		par.Do(workers, fillStripe)
		buf := stripes[0]
		if workers > 1 {
			joined = joined[:0]
			for _, s := range stripes {
				joined = append(joined, s...)
			}
			buf = joined
		}
		var ok bool
		if tmp, ok = radixSort(buf, w, tmp); !ok {
			sort.Slice(buf, func(i, j int) bool { return buf[i].Before(buf[j]) })
		}
		for _, e := range buf {
			out.Append(e)
			if out.Len() == out.Cap() {
				if err := fn(out); err != nil {
					return err
				}
				out.Reset()
			}
		}
		if last {
			break
		}
	}
	if out.Len() > 0 {
		return fn(out)
	}
	return nil
}
