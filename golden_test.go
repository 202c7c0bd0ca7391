package cptraffic_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// goldenDigests is the cross-version pin of the streaming pipelines and
// the fit: the sha256 of every byte the generator and world sources
// write, and of fitted models and partial-fit checkpoints, at tiny
// scale. The identity tests inside each package compare two paths of one
// build; this file compares the build against the bytes an earlier one
// produced, so a change that shifts every path the same way still fails.
// An intentional output change rewrites the file (the failure message
// prints its new contents) and says why in CHANGES.md.
const goldenDigests = "testdata/stream_digests.txt"

// TestGoldenStreamDigests regenerates the pinned streams and compares
// their digests with the committed file.
func TestGoldenStreamDigests(t *testing.T) {
	got := goldenStreams(t)
	want, err := readDigests(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range got {
		fmt.Fprintf(&b, "%s  %s\n", d.sum, d.name)
	}
	mismatch := len(got) != len(want)
	for _, d := range got {
		if w, ok := want[d.name]; !ok || w != d.sum {
			mismatch = true
			t.Errorf("%s: sha256 %s, pinned %q", d.name, d.sum, w)
		}
	}
	if mismatch {
		t.Fatalf("stream digests differ from %s; regenerated contents:\n%s", goldenDigests, b.String())
	}
}

type digest struct{ name, sum string }

func readDigests(path string) (map[string]string, error) {
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	return out, sc.Err()
}

// goldenStreams renders every pinned stream: the fitted model JSON, the
// generator source (two seeds × Workers 1 and 4) and the world source
// (two seeds × midnight and a 17:00 Offset), each through both the
// binary StreamWriter and the TextWriter, then the fit variants of
// goldenFits and the storm reports of goldenStorms.
func goldenStreams(t *testing.T) []digest {
	t.Helper()
	train, err := world.Generate(world.Options{NumUEs: 150, Duration: 3 * cp.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.Fit(train, core.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := ms.Save(&model); err != nil {
		t.Fatal(err)
	}
	out := []digest{{"model.json", sum(model.Bytes())}}
	for _, seed := range []uint64{1, 2} {
		for _, workers := range []int{1, 4} {
			src, err := core.NewSource(ms, core.GenOptions{
				NumUEs: 200, StartHour: 1, Duration: 2 * cp.Hour, Seed: seed, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, encodeBoth(t, fmt.Sprintf("gen/seed=%d/workers=%d", seed, workers), src)...)
		}
		for _, offset := range []cp.Millis{0, 17 * cp.Hour} {
			src, err := world.NewSource(world.Options{
				NumUEs: 200, Duration: 2 * cp.Hour, Offset: offset, Seed: seed, Workers: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, encodeBoth(t, fmt.Sprintf("world/seed=%d/offset=%dh", seed, offset/cp.Hour), src)...)
		}
	}
	out = append(out, goldenFits(t)...)
	return append(out, goldenStorms(t)...)
}

// goldenStorms pins the stormsim report of every starter scenario at
// 5% scale, through the same steps as stormsim's run: load, scale,
// simulate at 4 workers, replay through the NF queueing model, and
// encode the report JSON.
func goldenStorms(t *testing.T) []digest {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenarios/*.json")
	}
	var out []digest
	for _, path := range paths {
		s, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		s = s.Scaled(0.05)
		tr, err := scenario.Simulate(s, 4)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rep, err := scenario.Storm(s, tr)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var b bytes.Buffer
		if err := rep.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		out = append(out, digest{"storm/" + name + "/report.json", sum(b.Bytes())})
	}
	return out
}

// goldenFits pins the fit's canonical-order paths on a 2-day world, so
// hour pools from both days meet in the cross-day flat merge: the
// model JSON of the paper method, the V2 ablation (exponential sojourns
// with the censored MLE), the Base method (flat machine, free HO/TAU)
// and a sketched fit; a 2-shard fit taken through the partialfit/1
// codec and merged; and the partialfit/1 bytes of one shard.
func goldenFits(t *testing.T) []digest {
	t.Helper()
	train, err := world.Generate(world.Options{NumUEs: 100, Duration: 2 * cp.Day, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []digest
	for _, method := range []string{"ours", "v2", "base"} {
		opt, err := baseline.Options(method, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest{"fit/" + method + "/model.json", sum(fitBytes(t, train, opt))})
	}
	sketched := core.FitOptions{SketchK: 64}
	out = append(out, digest{"fit/ours-sketch64/model.json", sum(fitBytes(t, train, sketched))})

	var shards []*core.PartialFit
	for s := 0; s < 2; s++ {
		src, err := trace.ShardSource(train, 2, s)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := core.NewPartialFit(core.FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.AddSource(src); err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := pf.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			out = append(out, digest{"fit/ours/shard=0of2.partialfit", sum(enc.Bytes())})
		}
		dec, err := core.DecodePartial(&enc)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, dec)
	}
	if err := shards[0].Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	ms, err := shards[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, digest{"fit/ours/shards=2/codec/model.json", sum(modelJSON(t, ms))})
}

func fitBytes(t *testing.T, tr *trace.Trace, opt core.FitOptions) []byte {
	t.Helper()
	ms, err := core.Fit(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return modelJSON(t, ms)
}

func modelJSON(t *testing.T, ms *core.ModelSet) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ms.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// encodeBoth streams src through the binary and the text writer, the
// two encoders behind traffgen/worldgen -stream.
func encodeBoth(t *testing.T, name string, src trace.EventSource) []digest {
	t.Helper()
	var out []digest
	for _, codec := range []string{"binary", "text"} {
		var buf bytes.Buffer
		var w interface {
			trace.EventSink
			io.Closer
		}
		if codec == "binary" {
			w = trace.NewStreamWriter(&buf)
		} else {
			w = trace.NewTextWriter(&buf)
		}
		if err := trace.CopyBatches(w, src); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, digest{name + "/" + codec, sum(buf.Bytes())})
	}
	return out
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
