package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/mcn"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// Tiny gen-stream shape for the negative controls.
const (
	tinyUEs   = 200
	tinyStart = 18
	tinyHours = 1
)

// tinyTrace generates a small population from a model fitted on a
// small world, the gen-stream pipeline at test scale.
func tinyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	w, err := world.Generate(world.Options{NumUEs: 100, Duration: cp.Day, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := fitOptions(1)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Fit(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewSource(ms, core.GenOptions{
		NumUEs: tinyUEs, StartHour: tinyStart, Duration: tinyHours * cp.Hour, Seed: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 10 {
		t.Fatalf("tiny trace has only %d events", tr.Len())
	}
	return tr
}

// writeRaw encodes events in the binary stream format (version 2, one
// chunk) without the writer's order checks, so a test can store an
// out-of-order stream. A backwards step is stored as a wrapped delta,
// which the decoder's unsigned addition turns back into the earlier
// time.
func writeRaw(t *testing.T, path string, devs map[cp.UEID]cp.DeviceType, evs []trace.Event) jobResult {
	t.Helper()
	ues := make([]cp.UEID, 0, len(devs))
	for ue := range devs {
		ues = append(ues, ue)
	}
	sort.Slice(ues, func(i, j int) bool { return ues[i] < ues[j] })
	buf := []byte{'C', 'P', 'T', 'B', 2}
	buf = binary.AppendUvarint(buf, uint64(len(ues)))
	for i, ue := range ues {
		d := uint64(ue)
		if i > 0 {
			d = uint64(ue - ues[i-1])
		}
		buf = binary.AppendUvarint(buf, d)
		buf = append(buf, byte(devs[ue]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	for i, e := range evs {
		d := uint64(e.T)
		if i > 0 {
			d = uint64(e.T - evs[i-1].T)
		}
		buf = binary.AppendUvarint(buf, d)
		buf = binary.AppendUvarint(buf, uint64(e.UE))
		buf = append(buf, byte(e.Type))
	}
	buf = binary.AppendUvarint(buf, 0)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return jobResult{Events: int64(len(evs)), UEs: len(ues), OutBytes: int64(len(buf))}
}

// TestNegativeControl shows that an out-of-order, a dropped-event and
// a corrupted gen-stream output each count as a failed operation,
// while intact outputs pass.
func TestNegativeControl(t *testing.T) {
	tr := tinyTrace(t)
	dir := t.TempDir()
	check := func(path string, res jobResult) error {
		return checkGenStream(path, tinyUEs, tinyStart, tinyHours, res)
	}
	b := &bench{workload: "gen-stream"}

	good := filepath.Join(dir, "good")
	res := writeRaw(t, good, tr.Device, tr.Events)
	if err := check(good, res); err != nil {
		t.Fatalf("intact output failed its check: %v", err)
	}
	// Corrupted: one event's type byte changed to another valid type.
	// The stream can still decode in order inside the window; the digest
	// comparison with the first run at this seed catches it regardless.
	b2, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Events[tr.Len()-1]
	typePos := len(b2) - 2 // the last record's type byte precedes the terminator
	if cp.EventType(b2[typePos]) != last.Type {
		t.Fatalf("byte %d is %d, want the last event's type %d", typePos, b2[typePos], last.Type)
	}
	b2[typePos] = byte((int(last.Type) + 1) % cp.NumEventTypes)
	corrupt := filepath.Join(dir, "corrupt")
	if err := os.WriteFile(corrupt, b2, 0o644); err != nil {
		t.Fatal(err)
	}
	cerr := check(corrupt, res)

	if !b.tally("good", good, res, nil) {
		t.Fatal("intact output counted as failed")
	}
	again := filepath.Join(dir, "again")
	writeRaw(t, again, tr.Device, tr.Events)
	if !b.tally("again", again, res, check(again, res)) {
		t.Fatal("second intact output counted as failed")
	}

	// Out of order: swap two events at different times.
	i := 0
	for i+1 < tr.Len() && tr.Events[i].T == tr.Events[i+1].T {
		i++
	}
	swapped := append([]trace.Event(nil), tr.Events...)
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	order := filepath.Join(dir, "order")
	ores := writeRaw(t, order, tr.Device, swapped)
	oerr := check(order, ores)
	if oerr == nil {
		t.Error("out-of-order output passed its check")
	}

	// Dropped: one event fewer than the job reported generating.
	drop := filepath.Join(dir, "drop")
	dres := writeRaw(t, drop, tr.Device, append(append([]trace.Event(nil), tr.Events[:i]...), tr.Events[i+1:]...))
	dres.Events = res.Events
	derr := check(drop, dres)
	if derr == nil {
		t.Error("output with a dropped event passed its check")
	}

	for _, c := range []struct {
		name string
		err  error
	}{{"order", oerr}, {"drop", derr}, {"corrupt", cerr}} {
		if b.tally(c.name, filepath.Join(dir, c.name), res, c.err) {
			t.Errorf("%s output counted as passed", c.name)
		}
	}
	if b.attempted != 5 || b.failed != 3 {
		t.Errorf("tallied %d attempted and %d failed, want 5 and 3", b.attempted, b.failed)
	}
}

// TestStormCheckRejectsTamperedReport shows that a storm report whose
// series do not sum to its totals, or whose transactions do not add up
// to the offered load, fails its check.
func TestStormCheckRejectsTamperedReport(t *testing.T) {
	offered := make([]int, mcn.NumNFs)
	rep := mcn.StormReport{Bins: 2, Events: 10, PerNF: make([]mcn.NFStormReport, mcn.NumNFs)}
	for n := range rep.PerNF {
		rep.PerNF[n] = mcn.NFStormReport{NF: mcn.NF(n).String(), Transactions: 5, Drops: 3, Retries: 1,
			QueueDepth: []int{0, 0}, DropSeries: []int{1, 2}, RetrySeries: []int{0, 1}}
		offered[n] = 8
	}
	res := jobResult{Events: 10, Offered: offered}
	path := filepath.Join(t.TempDir(), "report.json")
	write := func(r mcn.StormReport) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(rep)
	if err := checkStorm(path, res); err != nil {
		t.Fatalf("consistent report failed its check: %v", err)
	}
	rep.PerNF[1].DropSeries = []int{1, 1}
	write(rep)
	if checkStorm(path, res) == nil {
		t.Error("report whose drop series misses a drop passed its check")
	}
	rep.PerNF[1].DropSeries = []int{1, 2}
	rep.PerNF[2].Transactions = 4
	write(rep)
	if checkStorm(path, res) == nil {
		t.Error("report that lost a transaction passed its check")
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "gen.source", Start: 1, End: 9},
		{ID: 2, Parent: 1, Name: "trace.encode", Start: 2, End: 3},
		{ID: 3, Parent: 1, Name: "trace.encode", Start: 5, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]float64{"run": 2, "gen.source": 5, "trace.encode": 3}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestPeakRSSCountsTouchedMemory checks that the job's peak-RSS reading
// rises by the memory the process touches.
func TestPeakRSSCountsTouchedMemory(t *testing.T) {
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 60 {
		t.Errorf("peak RSS rose %.1f MB after touching 64 MB", after-before)
	}
	runtime.KeepAlive(buf)
}
