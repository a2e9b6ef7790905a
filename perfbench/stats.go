package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits a time-ordered sample into up to 20
// consecutive windows, each large enough that its q-quantile has ten
// values beyond it, and returns the median of the windows' quantiles.
// A burst of host CPU stalls then moves one window's value instead of
// the whole tail. With fewer than three such windows it is the plain
// q-quantile.
func windowedQuantile(xs []float64, q float64) float64 {
	minWindow := int(math.Round(10 / (1 - q)))
	k := len(xs) / minWindow
	if k > 20 {
		k = 20
	}
	if k < 3 {
		return quantile(xs, q)
	}
	qs := make([]float64, k)
	for w := range qs {
		qs[w] = quantile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q)
	}
	return median(qs)
}

// peakRSSMB reads VmHWM (peak resident set) of pid from /proc, in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// span is one timed call from the benchmark into a layer. Spans of one
// request or ladder round share Trace; Parent 0 marks a root.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog holds spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id (0 when l is nil).
func (l *spanLog) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{Trace: trace, ID: l.next, Parent: parent, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds()})
	return l.next
}

// reserve allocates an id for a parent span recorded after its
// children (with addID).
func (l *spanLog) reserve() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) addID(id, trace, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds()})
}

// writeFile writes one JSON span per line.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// timed runs f n times and returns the median wall time in seconds of
// the runs, plus the first error.
func timedMedian(n int, f func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for rep := 0; rep < n; rep++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return median(ds), nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPct is the traced-minus-untraced share of the untraced
// median, in percent; 0 when either side has no sample.
func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(plain) - 1)
}
