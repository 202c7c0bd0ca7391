// Command worldgen synthesizes a ground-truth control-plane trace from
// the behavioral world simulator — the stand-in for a carrier trace
// collection (see DESIGN.md). The output feeds cmd/fitmodel.
//
// Usage:
//
//	worldgen -ues 2000 -hours 48 -seed 1 -o world.trace
//	worldgen -ues 2000000 -hours 24 -stream -binary -o big.trace
//	worldgen -scenario scenarios/stadium-event.json -o stadium.trace
//
// With -scenario the population, window, seed, mix, and scales come
// from a scenario/1 file (see SCENARIOS.md) and the corresponding
// flags are rejected; the fault schedule is applied by cmd/stormsim,
// not here.
//
// With -stream the population is simulated and written incrementally,
// one time window at a time — peak memory is the per-UE state plus one
// window, not the trace size — producing byte-identical output to the
// in-memory path.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cptraffic/internal/cp"
	"cptraffic/internal/prof"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// countingSink wraps an EventSink, tallying what passes through. It
// forwards whole batches to the writer's native batched face, so
// counting does not force the stream back onto the per-event path.
type countingSink struct {
	sink        trace.EventSink
	bsink       trace.BatchSink
	ues, events int
}

func newCountingSink(sink trace.EventSink) *countingSink {
	return &countingSink{sink: sink, bsink: trace.AsBatchSink(sink)}
}

func (c *countingSink) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	c.ues++
	return c.sink.SetDevice(ue, d)
}

func (c *countingSink) Write(e trace.Event) error {
	c.events++
	return c.sink.Write(e)
}

func (c *countingSink) WriteBatch(b *trace.Batch) error {
	c.events += b.Len()
	return c.bsink.WriteBatch(b)
}

// streamOut copies src into w in the chosen format over the batched
// pipeline — the source fills struct-of-arrays batches and the writer
// drains them whole — returning the counts for the summary line. The
// bytes are identical to the per-event path (test-enforced).
func streamOut(w io.Writer, src trace.EventSource, binary bool) (ues, events int, err error) {
	var sink trace.EventSink
	var closeFn func() error
	if binary {
		sw := trace.NewStreamWriter(w)
		sink, closeFn = sw, sw.Close
	} else {
		tw := trace.NewTextWriter(w)
		sink, closeFn = tw, tw.Close
	}
	cs := newCountingSink(sink)
	if err := trace.CopyBatches(cs, src); err != nil {
		return 0, 0, err
	}
	return cs.ues, cs.events, closeFn()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("worldgen: ")
	var (
		ues     = flag.Int("ues", 2000, "population size")
		hours   = flag.Int("hours", 48, "trace duration in hours (epoch is midnight)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("o", "-", "output file ('-' for stdout)")
		binOut  = flag.Bool("binary", false, "write the compact binary trace format")
		stream  = flag.Bool("stream", false, "simulate and write incrementally (memory: per-UE state plus one assembly window; identical output)")
		phones  = flag.Float64("phones", -1, "phone share override (with -cars, -tablets)")
		cars    = flag.Float64("cars", -1, "connected-car share override")
		tabs    = flag.Float64("tablets", -1, "tablet share override")
		scnPath = flag.String("scenario", "", "take population/window/seed/mix/scales from this scenario/1 file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	opt := world.Options{
		NumUEs:   *ues,
		Duration: cp.Millis(*hours) * cp.Hour,
		Seed:     *seed,
	}
	if *phones >= 0 || *cars >= 0 || *tabs >= 0 {
		if *phones < 0 || *cars < 0 || *tabs < 0 {
			log.Fatal("set all of -phones, -cars, -tablets or none")
		}
		opt.Mix = []float64{*phones, *cars, *tabs}
	}
	if *scnPath != "" {
		if opt.Mix != nil {
			log.Fatal("-scenario conflicts with -phones/-cars/-tablets; set population.mix in the file")
		}
		s, err := scenario.Load(*scnPath)
		if err != nil {
			log.Fatal(err)
		}
		opt = s.WorldOptions(0)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	if *stream {
		src, err := world.NewSource(opt)
		if err != nil {
			log.Fatal(err)
		}
		nUEs, nEvents, err := streamOut(w, src, *binOut)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "worldgen: %d UEs, %d events over %.1f h (streamed)\n", nUEs, nEvents, float64(opt.Duration)/float64(cp.Hour))
		return
	}

	tr, err := world.Generate(opt)
	if err != nil {
		log.Fatal(err)
	}
	writeFn := trace.WriteTrace
	if *binOut {
		writeFn = trace.WriteBinaryTrace
	}
	if err := writeFn(w, tr); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "worldgen: %d UEs, %d events over %.1f h\n", tr.NumUEs(), tr.Len(), float64(opt.Duration)/float64(cp.Hour))
}
