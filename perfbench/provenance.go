package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance lists the configuration a result was measured under, so no
// number is read without it.
func provenance(p params, seed uint64, seconds int) ([][2]string, error) {
	dist, err := p.dist()
	if err != nil {
		return nil, err
	}
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	return [][2]string{
		{"workload", p.name},
		{"why", p.why},
		{"seed", fmt.Sprint(seed)},
		{"seconds", fmt.Sprint(seconds)},
		{"measured_phase", p.measuredWork(seconds)},
		{"connections", fmt.Sprint(p.conns)},
		{"batch_size", fmt.Sprint(p.batch)},
		{"preload_tenants", fmt.Sprint(p.preload)},
		{"preload_departed", fmt.Sprint(int(p.departFrac * float64(p.preload)))},
		{"clients", dist.Name()},
		{"engine", fmt.Sprintf("cubefit gamma=%d k=%d", engineConfig.Gamma, engineConfig.K)},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH},
		{"wal", walHome},
		{"host_hash_ms", fmt.Sprintf("%.1f (hashing %d MiB; compare across runs for host speed)", hostHashMs(), hashMiB)},
		{"commit", commit()},
		{"source_sha256", digest},
	}, nil
}

func printProvenance(w io.Writer, prov [][2]string) {
	fmt.Fprintln(w, "provenance:")
	for _, kv := range prov {
		fmt.Fprintf(w, "  %-18s %s\n", kv[0], kv[1])
	}
}

// hashMiB is the size of the fixed CPU task hostHashMs times.
const hashMiB = 64

// hostHashMs times a fixed CPU-bound task, SHA-256 over hashMiB of zeros,
// so a reader can tell a slow host from a slow program.
func hostHashMs() float64 {
	buf := make([]byte, hashMiB<<20)
	start := wallNow()
	sha256.Sum256(buf)
	return float64(wallNow().Sub(start).Microseconds()) / 1e3
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = " (modified)"
			}
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout; see source_sha256)"
	}
	return rev + dirty
}

// sourceDigest hashes the service's Go sources under root (the module
// the benchmark builds against, excluding the benchmark itself), so a
// result identifies its code even where there is no commit to name.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
