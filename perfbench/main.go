// Command perfbench is cptraffic's end-to-end benchmark. It runs one of
// three batch workloads on the library's public API, the same calls
// the CLIs make, and checks every run's output:
//
//	gen-stream    traffgen -stream -binary: load a fitted model, stream
//	              100k UEs x 1 h through the binary writer
//	fit-file      fitmodel over a binary trace file: decode, accumulate,
//	              build and save a model
//	storm-replay  stormsim on the stadium scenario: simulate the world,
//	              replay it through the NF queueing model, write the report
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload gen-stream --seed 1 --seconds 20 --trace 0
//
// Set-up builds the workload's input artifact from the seed, in
// several rounds, and reports the median round as setup_s. Each timed
// job then runs in a child process of its own, which reports the peak
// RSS of its own address space, so set-up memory is not counted. The
// last line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics from traced
// jobs. NOTES.md says what each metric means.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// stateDir holds everything the benchmark leaves behind: run
// directories (removed on exit), span files, layer tables and the
// output-digest ledger. It is relative to the repository root.
var stateDir = filepath.Join(".bench_build", "perfbench")

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"events_per_s", "1/s"},
	{"ue_hours_per_s", "1/s"},
	{"first_event_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.load_s", "s"},
	{"core.model_bytes", "bytes"},
	{"core.compile_s", "s"},
	{"gen.first_batch_s", "s"},
	{"gen.source_s", "s"},
	{"gen.batches", "count"},
	{"gen.events_per_batch", "count"},
	{"trace.encode_s", "s"},
	{"trace.encode_bytes_per_event", "bytes"},
	{"trace.decode_s", "s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"fit.accumulate_s", "s"},
	{"fit.build_s", "s"},
	{"core.save_s", "s"},
	{"fit.events", "count"},
	{"fit.ues", "count"},
	{"world.simulate_s", "s"},
	{"world.events", "count"},
	{"mcn.storm_s", "s"},
	{"mcn.transactions", "count"},
	{"mcn.retries", "count"},
	{"mcn.drops", "count"},
	{"mcn.retry_share", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"run.cpu_s", "s"},
	{"run.cpu_util", "frac"},
	{"par.speedup_w2", "x"},
	{"tracing.overhead_events_per_s", "1/s"},
	{"tracing.overhead_frac", "frac"},
}

// Run counts. Timed runs continue past the minimum until --seconds
// have passed, unless the process would then overrun its time limit.
const (
	minRuns      = 3
	minTraced    = 2
	w1Runs       = 2
	minRounds    = 3                      // set-up rounds
	setupRound   = 250 * time.Millisecond // a round repeats set-up until this much time is spent
	setupBudget  = 2 * time.Second        // rounds continue until this much time is spent
	processLimit = 150 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "", "gen-stream | fit-file | storm-replay")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "how long to keep starting timed runs")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child    = flag.Bool("child", false, "internal: run one timed job and print its result")
		dir      = flag.String("dir", "", "internal: artifact directory of the job")
		out      = flag.String("out", "", "internal: output file of the job")
		nworkers = flag.Int("workers", workers, "internal: Workers setting of the job")
		runID    = flag.String("run", "", "internal: run id stamped on the job's spans")
	)
	flag.Parse()
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v) and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if *child {
		if err := childMain(*workload, *dir, *out, *seed, *nworkers, *traced == 1, *runID); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1, start: time.Now()}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// childMain runs one timed job and prints its jobResult as JSON.
func childMain(workload, dir, out string, seed uint64, w int, traced bool, runID string) error {
	rt0 := readRuntime()
	t0 := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(runID, t0)
		tr.begin("run")
	}
	var rt1 runtimeSample
	var hwm float64
	var hwmErr error
	stop := func() float64 {
		wall := time.Since(t0).Seconds()
		rt1 = readRuntime()
		hwm, hwmErr = peakRSSMB()
		tr.end()
		return wall
	}
	res, err := runJob(workload, dir, out, seed, w, tr, t0, stop)
	if err != nil {
		return err
	}
	if hwmErr != nil {
		return hwmErr
	}
	res.PeakRSS = hwm
	addRuntime(&res, rt0, rt1)
	if traced {
		for name, v := range selfTimes(tr.spans) {
			res.Layers[name+"_s"] = v
		}
		res.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	start    time.Time

	dir       string
	info      setupInfo
	attempted int
	failed    int
	digest    string // sha256 of the first checked output
	lastOut   string // output of the last passing run, kept for the traced checks
}

func (b *bench) run() (result, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return result{}, err
	}
	b.dir = filepath.Join(stateDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.dir)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, GOMAXPROCS %d, Workers %d, trace %v\n",
		b.workload, b.seed, runtime.GOMAXPROCS(0), workers, b.traced)
	var metrics map[string]metric
	var err error
	if b.traced {
		metrics, err = b.tracedRun()
	} else {
		metrics, err = b.timedRun()
	}
	if err != nil {
		return result{}, err
	}
	same := true
	if b.digest != "" {
		if same, err = recordDigest(b.workload, b.seed, b.digest); err != nil {
			return result{}, err
		}
	}
	return result{
		Correct:   b.failed == 0 && same && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// setups builds the workload's artifact in b.dir in rounds and returns
// each round's mean set-up time. A round repeats the set-up until it
// has spent setupRound, so a set-up far shorter than that is timed
// over many repetitions; rounds continue until setupBudget is spent,
// minRounds at least. Every repetition must report the same inputs and
// every round must leave an artifact with the same bytes.
func (b *bench) setups() ([]float64, error) {
	var means []float64
	var want string
	var spent time.Duration
	for k := 0; k < minRounds || spent < setupBudget; k++ {
		var round time.Duration
		n := 0
		for ; n == 0 || round < setupRound; n++ {
			t := time.Now()
			info, err := setup(b.workload, b.dir, b.seed, nil)
			round += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if k == 0 && n == 0 {
				b.info = info
			} else if info != b.info {
				return nil, fmt.Errorf("set-up is not deterministic: round %d reports other inputs", k)
			}
		}
		spent += round
		means = append(means, round.Seconds()/float64(n))
		sha, err := fileSHA256(filepath.Join(b.dir, artifact(b.workload)))
		if err != nil {
			return nil, err
		}
		if k == 0 {
			want = sha
		} else if sha != want {
			return nil, fmt.Errorf("set-up is not deterministic: round %d wrote other bytes", k)
		}
	}
	return means, nil
}

func artifact(workload string) string {
	switch workload {
	case "gen-stream":
		return modelFile
	case "fit-file":
		return worldFile
	}
	return scenarioFile
}

// job runs one timed job in a child process, checks its output and
// tallies it. It returns ok=false for a failed operation.
func (b *bench) job(w int, traced bool) (jobResult, bool) {
	id := fmt.Sprintf("%s-%d-%d", b.workload, b.seed, b.attempted+1)
	out := filepath.Join(b.dir, "out-"+strconv.Itoa(b.attempted+1))
	r, err := b.child(out, w, traced, id)
	if err == nil {
		err = checkOutput(b.workload, out, b.info, r)
	}
	return r, b.tally(id, out, r, err)
}

// tally counts one run whose output check returned err. A run that
// passed its check but wrote other bytes than the first run at this
// seed fails too. The output of the last passing run is kept for the
// traced checks; every other output is removed.
func (b *bench) tally(id, out string, r jobResult, err error) bool {
	b.attempted++
	var sha string
	if err == nil {
		sha, err = fileSHA256(out)
	}
	if err == nil && b.digest == "" {
		b.digest = sha
	} else if err == nil && sha != b.digest {
		err = fmt.Errorf("output sha256 %s differs from the first run's %s at the same seed", sha[:12], b.digest[:12])
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: run %s FAILED: %v\n", id, err)
		os.Remove(out)
		return false
	}
	fmt.Fprintf(os.Stderr, "perfbench: run %s: %.3f s, %.0f events/s, first event %.1f ms, peak RSS %.1f MB, sha256 %s\n",
		id, r.Wall, float64(r.Events)/r.Wall, 1000*r.FirstEvent, r.PeakRSS, sha[:16])
	if b.lastOut != "" {
		os.Remove(b.lastOut)
	}
	b.lastOut = out
	return true
}

func (b *bench) child(out string, w int, traced bool, id string) (jobResult, error) {
	var r jobResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	tflag := "0"
	if traced {
		tflag = "1"
	}
	fmt.Fprintf(os.Stderr, "perfbench: run %s: workers %d, traced %v\n", id, w, traced)
	cmd := exec.Command(exe, "-child", "-workload", b.workload, "-seed", strconv.FormatUint(b.seed, 10),
		"-dir", b.dir, "-out", out, "-workers", strconv.Itoa(w), "-trace", tflag, "-run", id)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A job must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("job: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return r, fmt.Errorf("job result: %w", err)
	}
	return r, nil
}

// more reports whether another job of about last's length may start.
func (b *bench) more(n, min int, since time.Time, last float64) bool {
	if n < min {
		return true
	}
	if time.Since(b.start)+time.Duration(2*last*float64(time.Second)) > processLimit {
		return false
	}
	return time.Since(since) < b.seconds
}

// timedRun measures the end-to-end metrics with tracing off.
func (b *bench) timedRun() (map[string]metric, error) {
	setupTimes, err := b.setups()
	if err != nil {
		return nil, err
	}
	var eps, uhps, first, rss []float64
	// The first job after set-up runs while set-up's writes drain and
	// is checked but not timed.
	warm, _ := b.job(workers, false)
	start := time.Now()
	last := warm.Wall
	for n := 0; b.more(n, minRuns, start, last); n++ {
		r, ok := b.job(workers, false)
		last = r.Wall
		if !ok {
			continue
		}
		eps = append(eps, float64(r.Events)/r.Wall)
		uhps = append(uhps, b.info.UEHours/r.Wall)
		first = append(first, 1000*r.FirstEvent)
		rss = append(rss, r.PeakRSS)
	}
	vals := map[string]float64{
		"events_per_s":   median(eps),
		"ue_hours_per_s": median(uhps),
		"first_event_ms": median(first),
		"peak_rss_mb":    median(rss),
		"setup_s":        median(setupTimes),
	}
	return toMetrics(endToEnd, vals), nil
}

// tracedRun alternates untraced and traced jobs, repeats the job at
// Workers 1, and reports the per-layer metrics.
func (b *bench) tracedRun() (map[string]metric, error) {
	setupTr := newTracer("setup", time.Now())
	info, err := setup(b.workload, b.dir, b.seed, setupTr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.info = info
	var plainEPS, tracedEPS, plainWall, w1Wall []float64
	var traced []jobResult
	start := time.Now()
	last := 0.0
	for n := 0; b.more(n, minTraced, start, 2*last); n++ {
		if r, ok := b.job(workers, false); ok {
			plainEPS = append(plainEPS, float64(r.Events)/r.Wall)
			plainWall = append(plainWall, r.Wall)
			last = r.Wall
		}
		if r, ok := b.job(workers, true); ok {
			tracedEPS = append(tracedEPS, float64(r.Events)/r.Wall)
			traced = append(traced, r)
		}
	}
	for n := 0; n < w1Runs; n++ {
		if r, ok := b.job(1, false); ok {
			w1Wall = append(w1Wall, r.Wall)
		}
	}
	if len(traced) == 0 {
		return toMetrics(perLayer, nil), nil
	}

	vals := map[string]float64{}
	keys := map[string]bool{}
	for _, r := range traced {
		for k := range r.Layers {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.Layers[k])
		}
		vals[k] = median(xs)
	}
	// Layers the job does not call but set-up does (the training world
	// and fit of gen-stream, the trace encode of fit-file).
	for name, v := range selfTimes(setupTr.spans) {
		if _, ok := vals[name+"_s"]; !ok {
			vals[name+"_s"] = v
		}
	}
	if _, ok := vals["world.events"]; !ok && b.workload != "storm-replay" {
		vals["world.events"] = float64(info.Events)
	}
	if b.workload == "gen-stream" {
		vals["fit.events"], vals["fit.ues"] = float64(info.Events), float64(info.UEs)
	}
	if b.workload == "fit-file" {
		vals["trace.encode_bytes_per_event"] = vals["trace.in_bytes"] / float64(info.Events)
	}
	inBytes := vals["trace.in_bytes"]
	checkTr := newTracer("check", time.Now())
	if b.workload == "gen-stream" && b.lastOut != "" {
		// The paper's shape claim, on the generated bytes: no handover
		// happens in IDLE. The decode is the gen-stream decode layer.
		checkTr.begin("trace.decode")
		tr, err := readTrace(b.lastOut)
		checkTr.end()
		vals["trace.decode_s"] = selfTimes(checkTr.spans)["trace.decode"]
		if st, serr := os.Stat(b.lastOut); serr == nil {
			inBytes = float64(st.Size())
		}
		idle, total := 0, 0
		if err == nil {
			idle, total = idleHandovers(tr)
		}
		b.attempted++
		if err != nil || idle != 0 || total == 0 {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: macro check FAILED: %d of %d handovers in IDLE (%v)\n", idle, total, err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: macro check: 0 of %d handovers in IDLE\n", total)
		}
	}
	if d := vals["trace.decode_s"]; d > 0 {
		vals["trace.decode_mb_per_s"] = inBytes / (1 << 20) / d
	}
	if p, t := median(plainEPS), median(tracedEPS); p > 0 {
		vals["tracing.overhead_events_per_s"] = t - p
		vals["tracing.overhead_frac"] = (p - t) / p
	}
	if w2 := median(plainWall); w2 > 0 {
		vals["par.speedup_w2"] = median(w1Wall) / w2
	}
	if err := b.writeTrace(traced, append(setupTr.spans, checkTr.spans...)); err != nil {
		return nil, err
	}
	return toMetrics(perLayer, vals), nil
}

// writeTrace writes every span of the traced jobs and of set-up and
// checks, and the layer-share table of the median traced job.
func (b *bench) writeTrace(traced []jobResult, setupSpans []span) error {
	base := filepath.Join(stateDir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	werr := writeSpans(f, setupSpans)
	for _, r := range traced {
		if werr == nil {
			werr = writeSpans(f, r.Spans)
		}
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return werr
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].Wall < traced[j].Wall })
	mid := traced[len(traced)/2]
	var tbl bytes.Buffer
	writeShareTable(&tbl, b.workload, selfTimes(mid.Spans), mid.Wall)
	os.Stderr.Write(tbl.Bytes())
	return os.WriteFile(base+".layers.txt", tbl.Bytes(), 0o644)
}

// toMetrics returns every metric of defs, 0 where vals has none.
func toMetrics(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
