package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/mcn"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// workers is the Workers setting of every options struct that has one.
const workers = 2

// gen-stream: the traffgen -stream -binary path.
const (
	trainUEs     = 800 // experiments.DefaultConfig's training world
	trainDays    = 2
	thetaN       = 30
	thetaF       = 5 // fitmodel's -thetaf default
	genUEs       = 100_000
	genStartHour = 18
	genHours     = 1
)

// fit-file: the fitmodel path over a binary trace file.
const (
	fitUEs  = 2000
	fitDays = 1
)

// stadiumScenario is the storm-replay scenario, relative to the
// repository root.
var stadiumScenario = filepath.Join("scenarios", "stadium-event.json")

// Artifact file names inside a run directory.
const (
	modelFile    = "model.json"
	worldFile    = "world.cptb"
	scenarioFile = "scenario.json"
)

var workloadNames = []string{"gen-stream", "fit-file", "storm-replay"}

// fitOptions are fitmodel's options for -method ours -thetan 30.
func fitOptions(w int) (core.FitOptions, error) {
	opt, err := baseline.Options("ours", cluster.Options{
		ThetaF: cluster.Features{thetaF, thetaF, thetaF, thetaF},
		ThetaN: thetaN,
	})
	opt.Workers = w
	return opt, err
}

// setupInfo is what a workload's set-up learned about its inputs, for
// the output checks.
type setupInfo struct {
	UEs    int
	Events int64
	// UEHours is the UE-hours of control-plane traffic one job covers.
	UEHours float64
}

// setup writes the workload's input artifact for seed into dir.
func setup(workload, dir string, seed uint64, tr *tracer) (setupInfo, error) {
	switch workload {
	case "gen-stream":
		return setupGenStream(dir, seed, tr)
	case "fit-file":
		return setupFitFile(dir, seed, tr)
	case "storm-replay":
		return setupStorm(dir, seed)
	}
	return setupInfo{}, fmt.Errorf("unknown workload %q", workload)
}

// setupGenStream simulates the training world, fits "ours" and saves
// the model JSON that the timed job loads.
func setupGenStream(dir string, seed uint64, tr *tracer) (setupInfo, error) {
	tr.begin("world.simulate")
	world0, err := world.Generate(world.Options{
		NumUEs:   trainUEs,
		Duration: trainDays * cp.Day,
		Seed:     seed,
		Workers:  workers,
	})
	tr.end()
	if err != nil {
		return setupInfo{}, err
	}
	opt, err := fitOptions(workers)
	if err != nil {
		return setupInfo{}, err
	}
	tr.begin("fit.accumulate")
	pf, err := core.NewPartialFit(opt)
	if err == nil {
		err = pf.AddSource(world0)
	}
	tr.end()
	if err != nil {
		return setupInfo{}, err
	}
	tr.begin("fit.build")
	ms, err := pf.Build()
	tr.end()
	if err != nil {
		return setupInfo{}, err
	}
	tr.begin("core.save")
	err = saveFile(filepath.Join(dir, modelFile), ms.Save)
	tr.end()
	return setupInfo{UEs: world0.NumUEs(), Events: int64(world0.Len()), UEHours: genUEs * genHours}, err
}

// setupFitFile simulates a day of the world and writes it as a binary
// trace file.
func setupFitFile(dir string, seed uint64, tr *tracer) (setupInfo, error) {
	tr.begin("world.simulate")
	world0, err := world.Generate(world.Options{
		NumUEs:   fitUEs,
		Duration: fitDays * cp.Day,
		Seed:     seed,
		Workers:  workers,
	})
	tr.end()
	if err != nil {
		return setupInfo{}, err
	}
	tr.begin("trace.encode")
	err = saveFile(filepath.Join(dir, worldFile), func(w io.Writer) error {
		return trace.WriteBinaryTrace(w, world0)
	})
	tr.end()
	return setupInfo{UEs: world0.NumUEs(), Events: int64(world0.Len()), UEHours: fitUEs * fitDays * 24}, err
}

// setupStorm writes the repository's stadium scenario with its seed
// replaced by the benchmark's.
func setupStorm(dir string, seed uint64) (setupInfo, error) {
	f, err := os.Open(stadiumScenario)
	if err != nil {
		return setupInfo{}, err
	}
	s, err := scenario.Parse(f)
	f.Close()
	if err != nil {
		return setupInfo{}, err
	}
	s.Seed = seed
	b, err := s.Marshal()
	if err != nil {
		return setupInfo{}, err
	}
	err = saveFile(filepath.Join(dir, scenarioFile), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	hours := float64(s.Population.UEs) * float64(s.DurationMin) / 60
	return setupInfo{UEs: s.Population.UEs, UEHours: hours}, err
}

// saveFile creates path, fills it with write and closes it, reporting
// the first error.
func saveFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobResult is what one timed job reports to the parent process.
type jobResult struct {
	// Wall is the timed region, from the first input byte read to the
	// last output byte written.
	Wall float64 `json:"wall_s"`
	// FirstEvent is the time from the start of the job to the first
	// event reaching the pipeline's consumer.
	FirstEvent float64 `json:"first_event_s"`
	// Events counts events generated, fitted or simulated.
	Events int64 `json:"events"`
	// UEs counts the UEs registered in the output (gen-stream), fitted
	// (fit-file) or simulated (storm-replay).
	UEs      int   `json:"ues"`
	OutBytes int64 `json:"out_bytes"`
	// PeakRSS is the job process's VmHWM in MB when the job ends: the
	// high-water mark of its own address space only. (Its ru_maxrss
	// would include the parent's, which Linux folds in at exec.)
	PeakRSS float64 `json:"peak_rss_mb"`
	// Offered is, per NF, the transactions the replayed events demand
	// (storm-replay only), counted from the simulated trace after the
	// timed region.
	Offered []int `json:"offered,omitempty"`
	// Layers holds per-layer values: self times by span name (with an
	// "_s" suffix), counts, and the runtime's own counters.
	Layers map[string]float64 `json:"layers"`
	Spans  []span             `json:"spans,omitempty"`
}

// runJob runs workload's timed job once on the artifacts in dir,
// writing its output to out. The job started at t0 and calls stop,
// which returns the wall time, when its last output byte is written.
func runJob(workload, dir, out string, seed uint64, w int, tr *tracer, t0 time.Time, stop func() float64) (jobResult, error) {
	switch workload {
	case "gen-stream":
		return jobGenStream(dir, out, seed, w, tr, t0, stop)
	case "fit-file":
		return jobFitFile(dir, out, w, tr, t0, stop)
	case "storm-replay":
		return jobStorm(dir, out, w, tr, t0, stop)
	}
	return jobResult{}, fmt.Errorf("unknown workload %q", workload)
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// genSink is traffgen's counting sink in front of the StreamWriter,
// noting when the first batch arrives and timing each call into the
// encoder.
type genSink struct {
	sw      *trace.StreamWriter
	tr      *tracer
	t0      time.Time
	first   time.Duration
	batches int64
	events  int64
	ues     int
}

func (s *genSink) SetDevice(ue cp.UEID, d cp.DeviceType) error {
	s.ues++
	return s.sw.SetDevice(ue, d)
}

func (s *genSink) Write(e trace.Event) error {
	if s.events == 0 {
		s.first = time.Since(s.t0)
	}
	s.events++
	return s.sw.Write(e)
}

func (s *genSink) WriteBatch(b *trace.Batch) error {
	if s.batches == 0 {
		s.first = time.Since(s.t0)
	}
	s.batches++
	s.events += int64(b.Len())
	s.tr.begin("trace.encode")
	err := s.sw.WriteBatch(b)
	s.tr.end()
	return err
}

func jobGenStream(dir, out string, seed uint64, w int, tr *tracer, t0 time.Time, stop func() float64) (jobResult, error) {
	var res jobResult
	tr.begin("core.load")
	f, err := os.Open(filepath.Join(dir, modelFile))
	if err != nil {
		return res, err
	}
	ms, err := core.Load(f)
	f.Close()
	tr.end()
	if err != nil {
		return res, err
	}
	tr.begin("core.compile")
	src, err := core.NewSource(ms, core.GenOptions{
		NumUEs:    genUEs,
		StartHour: genStartHour,
		Duration:  genHours * cp.Hour,
		Seed:      seed,
		Workers:   w,
	})
	tr.end()
	if err != nil {
		return res, err
	}
	compiled := time.Since(t0)
	of, err := os.Create(out)
	if err != nil {
		return res, err
	}
	defer of.Close()
	cw := &countWriter{w: of}
	sink := &genSink{sw: trace.NewStreamWriter(cw), tr: tr, t0: t0}
	tr.begin("gen.source")
	err = trace.CopyBatches(sink, src)
	tr.end()
	if err != nil {
		return res, err
	}
	tr.begin("trace.encode")
	err = sink.sw.Close()
	tr.end()
	if err != nil {
		return res, err
	}
	if err := of.Close(); err != nil {
		return res, err
	}
	res = jobResult{
		Wall:       stop(),
		FirstEvent: sink.first.Seconds(),
		Events:     sink.events,
		UEs:        sink.ues,
		OutBytes:   cw.n,
		Layers: map[string]float64{
			"gen.first_batch_s":            (sink.first - compiled).Seconds(),
			"gen.batches":                  float64(sink.batches),
			"gen.events_per_batch":         float64(sink.events) / float64(sink.batches),
			"trace.encode_bytes_per_event": float64(cw.n) / float64(sink.events),
		},
	}
	if st, err := os.Stat(filepath.Join(dir, modelFile)); err == nil {
		res.Layers["core.model_bytes"] = float64(st.Size())
	}
	return res, nil
}

// fitSource wraps the trace file the fit reads. Its Scan drives the
// file's ScanBatches, notes when the first event arrives and, traced,
// times the fit's consumption of each batch, so decode and accumulate
// self times separate. Traced and untraced jobs decode the same way.
type fitSource struct {
	file  *trace.FileSource
	tr    *tracer
	t0    time.Time
	first time.Duration
	seen  bool
}

func (s *fitSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	s.tr.begin("trace.decode")
	err := s.file.Devices(fn)
	s.tr.end()
	return err
}

func (s *fitSource) Scan(fn func(trace.Event) error) error {
	s.tr.begin("trace.decode")
	defer s.tr.end()
	return s.file.ScanBatches(func(b *trace.Batch) error {
		if !s.seen {
			s.seen, s.first = true, time.Since(s.t0)
		}
		s.tr.begin("fit.accumulate")
		defer s.tr.end()
		for i := range b.T {
			if err := fn(b.At(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

func jobFitFile(dir, out string, w int, tr *tracer, t0 time.Time, stop func() float64) (jobResult, error) {
	var res jobResult
	in := filepath.Join(dir, worldFile)
	tr.begin("trace.decode")
	file, err := trace.NewFileSource(in)
	tr.end()
	if err != nil {
		return res, err
	}
	opt, err := fitOptions(w)
	if err != nil {
		return res, err
	}
	src := &fitSource{file: file, tr: tr, t0: t0}
	tr.begin("fit.accumulate")
	pf, err := core.NewPartialFit(opt)
	if err == nil {
		err = pf.AddSource(src)
	}
	tr.end()
	if err != nil {
		return res, err
	}
	consumed, ues := pf.EventsConsumed(), pf.NumUEs()
	tr.begin("fit.build")
	ms, err := pf.Build()
	tr.end()
	if err != nil {
		return res, err
	}
	var cw *countWriter
	tr.begin("core.save")
	err = saveFile(out, func(f io.Writer) error {
		cw = &countWriter{w: f}
		return ms.Save(cw)
	})
	tr.end()
	if err != nil {
		return res, err
	}
	res = jobResult{
		Wall:       stop(),
		FirstEvent: src.first.Seconds(),
		Events:     consumed,
		UEs:        ues,
		OutBytes:   cw.n,
		Layers: map[string]float64{
			"fit.events":       float64(consumed),
			"fit.ues":          float64(ues),
			"core.model_bytes": float64(cw.n),
		},
	}
	if st, err := os.Stat(in); err == nil {
		res.Layers["trace.in_bytes"] = float64(st.Size())
	}
	return res, nil
}

func jobStorm(dir, out string, w int, tr *tracer, t0 time.Time, stop func() float64) (jobResult, error) {
	var res jobResult
	tr.begin("scenario.parse")
	f, err := os.Open(filepath.Join(dir, scenarioFile))
	if err != nil {
		return res, err
	}
	s, err := scenario.Parse(f)
	f.Close()
	tr.end()
	if err != nil {
		return res, err
	}
	tr.begin("world.simulate")
	sim, err := scenario.Simulate(s, w)
	tr.end()
	if err != nil {
		return res, err
	}
	first := time.Since(t0)
	tr.begin("mcn.storm")
	rep, err := scenario.Storm(s, sim)
	tr.end()
	if err != nil {
		return res, err
	}
	var cw *countWriter
	tr.begin("report.write")
	err = saveFile(out, func(f io.Writer) error {
		cw = &countWriter{w: f}
		return rep.WriteJSON(cw)
	})
	tr.end()
	if err != nil {
		return res, err
	}
	wall := stop()
	offered := mcn.NFLoad(sim)
	tau, attach := mcn.Transactions(cp.TrackingAreaUpdate), mcn.Transactions(cp.Attach)
	for n := range offered {
		offered[n] += rep.InjectedAttaches*attach[n] - rep.FilteredTAUs*tau[n]
	}
	var tx, retries, drops int
	for _, nf := range rep.PerNF {
		tx += nf.Transactions
		retries += nf.Retries
		drops += nf.Drops
	}
	res = jobResult{
		Wall:       wall,
		FirstEvent: first.Seconds(),
		Events:     int64(sim.Len()),
		UEs:        sim.NumUEs(),
		OutBytes:   cw.n,
		Offered:    offered[:],
		Layers: map[string]float64{
			"world.events":     float64(sim.Len()),
			"mcn.transactions": float64(tx),
			"mcn.retries":      float64(retries),
			"mcn.drops":        float64(drops),
			"mcn.retry_share":  float64(retries) / float64(tx+retries),
		},
	}
	return res, nil
}

// runtimeSample is a reading of the process counters a job's runtime
// metrics are differences of.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
	cpu                      time.Duration
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		allocBytes:   val(ms[0].Value),
		allocObjects: val(ms[1].Value),
		gcCPU:        val(ms[2].Value),
		totalCPU:     val(ms[3].Value),
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// addRuntime records the runtime counters between a and b into res.
func addRuntime(res *jobResult, a, b runtimeSample) {
	cpu := (b.cpu - a.cpu).Seconds()
	res.Layers["runtime.alloc_mb"] = (b.allocBytes - a.allocBytes) / (1 << 20)
	res.Layers["runtime.allocs_per_event"] = (b.allocObjects - a.allocObjects) / float64(res.Events)
	if d := b.totalCPU - a.totalCPU; d > 0 {
		res.Layers["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
	res.Layers["run.cpu_s"] = cpu
	res.Layers["run.cpu_util"] = cpu / (res.Wall * float64(runtime.GOMAXPROCS(0)))
}

// peakRSSMB returns the VmHWM line of /proc/self/status in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if n, _ := fmt.Sscanf(sc.Text(), "VmHWM: %g kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
