package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// recordDigest appends the output digest of this workload and seed to
// the ledger in stateDir, keyed by a digest of the source tree. It
// returns false when the ledger already holds another digest for the
// same source, workload and seed: the same program then wrote different
// bytes in another process. A digest that differs only from an earlier
// source tree's is a byte change between versions; it is reported on
// standard error and recorded, not failed.
func recordDigest(workload string, seed uint64, digest string) (bool, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return false, err
	}
	path := filepath.Join(stateDir, "digests.log")
	ok := true
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var w, s, d string
			var sd uint64
			if n, _ := fmt.Sscan(sc.Text(), &w, &sd, &s, &d); n != 4 || w != workload || sd != seed || d == digest {
				continue
			}
			if s == src {
				ok = false
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d wrote %s, an earlier process of this source wrote %s\n",
					workload, seed, digest[:16], d[:16])
			} else {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d output bytes changed since source %s (%s -> %s)\n",
					workload, seed, s[:12], d[:16], digest[:16])
			}
		}
		f.Close()
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := fmt.Fprintf(f, "%s %d %s %s\n", workload, seed, src, digest); err != nil {
		f.Close()
		return false, err
	}
	return ok, f.Close()
}

// sourceDigest hashes the names and bytes of the Go sources, module
// files and JSON inputs under root, skipping hidden directories and
// the benchmark's state.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	return hex.EncodeToString(h.Sum(nil)), err
}
