package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host identifies where and on what a result was taken.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	// SourceSHA256 hashes the checkout's Go sources and module files,
	// so results stay attributable when the checkout has no .git.
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
}

func hostInfo(c config) host {
	return host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitSHA:       gitSHA("."),
		SourceSHA256: sourceDigest("."),
		Seed:         c.seed,
	}
}

// gitSHA reads HEAD from root/.git without running git, or returns
// "none" when the checkout is not a repository.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every .go, go.mod and .json file under root,
// skipping dot-directories (build outputs, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".json") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is one run's saved result.
type record struct {
	Host      host                   `json:"host"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// checkComparable refuses pairs whose timings cannot be ranked against each
// other: different CPU counts, GOMAXPROCS, workloads or run modes.
func checkComparable(a, b record) error {
	switch {
	case a.Host.NumCPU != b.Host.NumCPU:
		return fmt.Errorf("refusing to compare: taken at %d vs %d CPUs", a.Host.NumCPU, b.Host.NumCPU)
	case a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return fmt.Errorf("refusing to compare: taken at GOMAXPROCS %d vs %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	case a.Workload != b.Workload || a.Trace != b.Trace:
		return fmt.Errorf("refusing to compare: %s trace=%v vs %s trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}

// compareFiles prints B/A for every metric both records carry.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if err := checkComparable(a, b); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-26s %14s %14s %8s\n", "metric", "A", "B", "B/A")
	for _, n := range names {
		va, vb := a.Metrics[n].Value, b.Metrics[n].Value
		ratio := "-"
		if va != 0 {
			ratio = fmt.Sprintf("%.3f", vb/va)
		}
		fmt.Fprintf(w, "%-26s %14.6g %14.6g %8s %s\n", n, va, vb, ratio, a.Metrics[n].Unit)
	}
	return nil
}
