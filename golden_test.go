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

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// goldenDigests is the cross-version pin of the streaming pipelines: the
// sha256 of every byte the generator and world sources write, at tiny
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
// binary StreamWriter and the TextWriter.
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
	return out
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
