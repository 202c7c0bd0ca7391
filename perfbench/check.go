package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/mcn"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// checkOutput verifies one job's output file against what set-up and
// the job reported. Any error makes the run a failed operation.
func checkOutput(workload, out string, info setupInfo, res jobResult) error {
	switch workload {
	case "gen-stream":
		return checkGenStream(out, genUEs, genStartHour, genHours, res)
	case "fit-file":
		return checkFitFile(out, info, res)
	case "storm-replay":
		return checkStorm(out, res)
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// checkGenStream decodes a generated binary trace and checks that it
// registers ues UEs, that its events arrive in canonical order inside
// the [startHour, startHour+hours) window for registered UEs, and that
// the event and byte counts match what the job reported.
func checkGenStream(path string, ues, startHour, hours int, res jobResult) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() != res.OutBytes {
		return fmt.Errorf("output holds %d bytes, the job wrote %d", st.Size(), res.OutBytes)
	}
	sc, err := trace.NewScanner(f)
	if err != nil {
		return err
	}
	if sc.NumUEs() != ues || res.UEs != ues {
		return fmt.Errorf("output registers %d UEs and the job counted %d, want %d", sc.NumUEs(), res.UEs, ues)
	}
	lo := cp.Millis(startHour) * cp.Hour
	hi := lo + cp.Millis(hours)*cp.Hour
	var n int64
	var prev trace.Event
	for sc.Scan() {
		e := sc.Event()
		if n > 0 && e.Before(prev) {
			return fmt.Errorf("event %d (%v) out of canonical order after %v", n, e, prev)
		}
		if e.T < lo || e.T >= hi {
			return fmt.Errorf("event %d (%v) outside the window [%d, %d)", n, e, lo, hi)
		}
		if _, ok := sc.Device(e.UE); !ok {
			return fmt.Errorf("event %d (%v) for an unregistered UE", n, e)
		}
		prev = e
		n++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("decoding output: %w", err)
	}
	if n == 0 || n != res.Events {
		return fmt.Errorf("output holds %d events, the job generated %d", n, res.Events)
	}
	return nil
}

// checkFitFile loads the fitted model, which validates it, and checks
// that it was fitted from every UE and event of the input trace.
func checkFitFile(path string, info setupInfo, res jobResult) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ms, err := core.Load(f)
	if err != nil {
		return err
	}
	ues := 0
	for _, dm := range ms.Devices {
		if dm != nil {
			ues += dm.TrainUEs
		}
	}
	if ues != info.UEs || res.UEs != info.UEs {
		return fmt.Errorf("model trained on %d UEs and the fit registered %d, the trace has %d", ues, res.UEs, info.UEs)
	}
	if res.Events != info.Events {
		return fmt.Errorf("fit consumed %d events, the trace has %d", res.Events, info.Events)
	}
	return nil
}

// checkStorm decodes a storm report and checks, per NF, that drops do
// not exceed the transactions offered, that accepted plus dropped
// transactions are exactly those the replayed events demand, and that
// the per-bin series sum to the totals; and that every simulated event
// was replayed or filtered. The report's transactions count only
// accepted ones, which a saturated NF can drop more than.
func checkStorm(path string, res jobResult) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep mcn.StormReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	if len(rep.PerNF) == 0 || len(rep.PerNF) != len(res.Offered) {
		return fmt.Errorf("report has %d NFs, the replay offered load to %d", len(rep.PerNF), len(res.Offered))
	}
	for n, nf := range rep.PerNF {
		if nf.Drops > res.Offered[n] || nf.Transactions+nf.Drops != res.Offered[n] {
			return fmt.Errorf("%s: %d accepted and %d dropped transactions, the events offered %d",
				nf.NF, nf.Transactions, nf.Drops, res.Offered[n])
		}
		if len(nf.DropSeries) != rep.Bins || len(nf.RetrySeries) != rep.Bins || len(nf.QueueDepth) != rep.Bins {
			return fmt.Errorf("%s: series lengths differ from %d bins", nf.NF, rep.Bins)
		}
		if s := sum(nf.DropSeries); s != nf.Drops {
			return fmt.Errorf("%s: drop series sums to %d, total is %d", nf.NF, s, nf.Drops)
		}
		if s := sum(nf.RetrySeries); s != nf.Retries {
			return fmt.Errorf("%s: retry series sums to %d, total is %d", nf.NF, s, nf.Retries)
		}
	}
	if replayed := int64(rep.Events - rep.InjectedAttaches + rep.FilteredTAUs); replayed != res.Events {
		return fmt.Errorf("report replayed %d simulated events, the world simulated %d", replayed, res.Events)
	}
	return nil
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// readTrace decodes a whole binary trace file.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadBinaryTrace(f)
}

// idleHandovers counts, over every UE of tr, the handovers that fall in
// the IDLE macro state (the paper's shape claim is that there are none)
// and all handovers.
func idleHandovers(tr *trace.Trace) (idle, total int) {
	for _, evs := range tr.PerUE() {
		bd := sm.MacroBreakdown(evs, sm.InferMacroInitial(evs))
		for st, n := range bd[cp.Handover] {
			total += n
			if st == cp.StateIdle {
				idle += n
			}
		}
	}
	return idle, total
}

// fileSHA256 returns the hex sha256 of a file's bytes.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
