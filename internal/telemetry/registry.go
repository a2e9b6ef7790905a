package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing named total. Safe for
// concurrent use (the real runtime's workers update shared counters).
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Histogram is a fixed-bucket distribution of observed values
// (queue-wait cycles, chunk sizes, steal latencies). Buckets are
// cumulative counts of observations ≤ each upper bound, plus an
// overflow bucket. Safe for concurrent use.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sumMu  sync.Mutex
	sum    float64
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.sumMu.Lock()
	defer h.sumMu.Unlock()
	return h.sum
}

// BucketCounts returns the per-bucket observation counts; the last
// entry counts values above the final bound.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ExpBuckets builds n exponentially growing upper bounds starting at
// start with the given growth factor — the standard shape for latency
// distributions.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// StepSample is one per-step snapshot of every registered metric:
// cumulative counter totals and histogram count/sum pairs, keyed by
// metric name (histograms contribute "<name>_count" and "<name>_sum").
type StepSample struct {
	Step   int
	Values map[string]float64
}

// Registry holds named metrics and their per-step time series. Metric
// creation is locked; updates on the returned handles are lock-free
// (counters) or finely locked (histogram sums), so hot paths touch no
// registry-wide lock.
type Registry struct {
	mu     sync.Mutex
	order  []string
	counts map[string]*Counter
	hists  map[string]*Histogram
	series []StepSample
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counts[name] = c
	r.order = append(r.order, name)
	return c
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (later calls may
// pass nil bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if len(bounds) == 0 {
		bounds = ExpBuckets(1, 4, 12)
	}
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	h := &Histogram{name: name, bounds: sorted, counts: make([]atomic.Int64, len(sorted)+1)}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Snapshot appends one StepSample capturing the current value of every
// registered metric, labelled with the given step. The MetricsOf reader
// calls it on every phase-end record, turning the registry into a
// per-step time series (affinity decay across outer-loop phases shows
// up as the step-over-step delta of e.g. the "migrated_iters" counter).
func (r *Registry) Snapshot(step int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vals := make(map[string]float64, len(r.order)+len(r.hists))
	for name, c := range r.counts {
		vals[name] = float64(c.Value())
	}
	for name, h := range r.hists {
		vals[name+"_count"] = float64(h.Count())
		vals[name+"_sum"] = h.Sum()
	}
	r.series = append(r.series, StepSample{Step: step, Values: vals})
}

// Series returns the recorded per-step samples in order.
func (r *Registry) Series() []StepSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]StepSample(nil), r.series...)
}

// MetricNames returns every sample key in a stable order: registration
// order, histograms expanded to their _count/_sum pair.
func (r *Registry) MetricNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, name := range r.order {
		if _, ok := r.hists[name]; ok {
			out = append(out, name+"_count", name+"_sum")
			continue
		}
		out = append(out, name)
	}
	return out
}

// String summarises the registry for debugging.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("registry{%d metrics, %d samples}", len(r.order), len(r.series))
}

// metricsOf is the registry's reader of the record stream. Every
// series it keeps is one that records determine exactly; per-queue
// local takes and the simulator's memory totals are not among them
// (a static chunk and an AFS local take make the same exec record),
// so those stay in core.Stats and sim.Metrics.
type metricsOf struct {
	reg *Registry

	centralOps    *Counter
	remoteOps     *Counter
	steals        *Counter
	migratedIters *Counter
	iterations    *Counter

	chunkSize    *Histogram
	queueWait    *Histogram
	stealLatency *Histogram
}

// MetricsOf adapts a registry: exec, steal and queue-wait records
// update its counters and histograms, and every phase-end record takes
// one Snapshot. cycles selects the simulator's series names and
// cycle-scaled buckets (queue_wait_cycles_hist, steal_latency_cycles);
// otherwise the real runtime's nanosecond ones (queue_wait_ns,
// steal_latency_ns). Every series is registered here, so a run with no
// steals still reports zeros. The reader is safe for concurrent use.
// A nil registry gives a nil Observer.
func MetricsOf(r *Registry, cycles bool) Observer {
	if r == nil {
		return nil
	}
	waitName, stealName := "queue_wait_ns", "steal_latency_ns"
	lat := ExpBuckets(100, 4, 12) // 100ns .. ~1.6s
	if cycles {
		waitName, stealName = "queue_wait_cycles_hist", "steal_latency_cycles"
		lat = ExpBuckets(1, 4, 12) // 1 cycle .. ~4M cycles
	}
	return &metricsOf{
		reg:           r,
		centralOps:    r.Counter("central_ops"),
		remoteOps:     r.Counter("remote_ops"),
		steals:        r.Counter("steals"),
		migratedIters: r.Counter("migrated_iters"),
		iterations:    r.Counter("iterations"),
		chunkSize:     r.Histogram("chunk_size", ExpBuckets(1, 2, 16)), // 1 .. 32768 iterations
		queueWait:     r.Histogram(waitName, lat),
		stealLatency:  r.Histogram(stealName, lat),
	}
}

func (m *metricsOf) Observe(r Record) {
	switch r.Kind {
	case KindExec:
		n := int64(r.Hi - r.Lo)
		m.iterations.Add(n)
		m.chunkSize.Observe(float64(n))
		if r.Owner < 0 {
			m.centralOps.Inc()
		}
	case KindSteal:
		m.steals.Inc()
		m.remoteOps.Inc()
		m.migratedIters.Add(int64(r.Hi - r.Lo))
		m.stealLatency.Observe(r.End - r.Start)
	case KindQueueWait:
		m.queueWait.Observe(r.End - r.Start)
	case KindPhaseEnd:
		m.reg.Snapshot(r.Step)
	}
}
