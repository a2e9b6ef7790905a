// Package perflab is the continuous performance lab: a registry of
// named benchmark cases spanning both execution substrates (the
// internal/sim discrete-event simulator and the internal/core real
// goroutine runtime), a runner collecting wall-time distributions plus
// telemetry-derived counters, a versioned BENCH_<n>.json baseline
// store at the repo root, a statistical comparator that gates PRs on
// significant regressions, and markdown/SVG reporting.
//
// The flow, driven by cmd/perflab:
//
//	run      execute cases → BENCH_<n>.json (next free n)
//	compare  old vs new baseline → markdown report + trend SVGs
//	gate     re-run gate cases, compare to latest baseline,
//	         exit non-zero on a significant regression
//
// Significance is decided on robust statistics (median, MAD, bootstrap
// 95% CI from internal/stats): a case regresses when its median ratio
// exceeds the threshold AND the confidence intervals do not overlap.
// Simulator cases are deterministic (cycles, not wall time), so the
// committed baseline gates identically on any host; real-runtime cases
// are recorded for trend lines but excluded from the default gate set.
package perflab

import (
	"fmt"
	"regexp"
	"strings"
)

// Substrate selects which execution engine a case runs on.
const (
	SubstrateSim  = "sim"
	SubstrateReal = "real"
)

// A Case names one benchmark configuration: scheduler × kernel ×
// machine/worker-count on one substrate, with its measurement policy.
type Case struct {
	// ID is the stable name samples are keyed by across baselines,
	// e.g. "sim/iris/gauss/afs/p8". Derived by Registry.Add.
	ID        string `json:"id"`
	Substrate string `json:"substrate"` // "sim" or "real"
	Machine   string `json:"machine,omitempty"`
	Kernel    string `json:"kernel"`
	Algo      string `json:"algo"`
	N         int    `json:"n"`
	Phases    int    `json:"phases"`
	Procs     int    `json:"procs"`
	Repeats   int    `json:"repeats"`
	Warmup    int    `json:"warmup"`
	// Gate marks the case as part of the regression gate. Only
	// deterministic (simulator) cases should gate: real wall times vary
	// across hosts and would fail the committed baseline spuriously.
	Gate bool `json:"gate"`
}

func (c Case) id() string {
	parts := []string{c.Substrate}
	if c.Machine != "" {
		parts = append(parts, c.Machine)
	}
	parts = append(parts, c.Kernel, strings.ToLower(c.Algo), fmt.Sprintf("p%d", c.Procs))
	return strings.Join(parts, "/")
}

// Registry is an ordered collection of cases with unique IDs.
type Registry struct {
	cases []Case
	byID  map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]int)}
}

// Add derives the case's ID and registers it, replacing any previous
// case with the same ID (so callers can override defaults).
func (r *Registry) Add(c Case) Case {
	if c.ID == "" {
		c.ID = c.id()
	}
	if i, ok := r.byID[c.ID]; ok {
		r.cases[i] = c
		return c
	}
	r.byID[c.ID] = len(r.cases)
	r.cases = append(r.cases, c)
	return c
}

// Cases returns the registered cases in insertion order.
func (r *Registry) Cases() []Case { return append([]Case(nil), r.cases...) }

// Get returns the case registered under id.
func (r *Registry) Get(id string) (Case, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Case{}, false
	}
	return r.cases[i], true
}

// Filter returns the cases matching an ID regexp (empty pattern = all)
// and a substrate ("" or "both" = all). gateOnly further restricts to
// gate-eligible cases.
func (r *Registry) Filter(pattern, substrate string, gateOnly bool) ([]Case, error) {
	var re *regexp.Regexp
	if pattern != "" {
		var err error
		re, err = regexp.Compile(pattern)
		if err != nil {
			return nil, fmt.Errorf("perflab: bad case pattern %q: %w", pattern, err)
		}
	}
	if substrate == "both" {
		substrate = ""
	}
	if substrate != "" && substrate != SubstrateSim && substrate != SubstrateReal {
		return nil, fmt.Errorf("perflab: unknown substrate %q (sim, real, both)", substrate)
	}
	var out []Case
	for _, c := range r.cases {
		if re != nil && !re.MatchString(c.ID) {
			continue
		}
		if substrate != "" && c.Substrate != substrate {
			continue
		}
		if gateOnly && !c.Gate {
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

// DefaultRegistry returns the standing benchmark suite. short selects
// the CI-sized variant: smaller problems, fewer repeats, same case IDs
// — IDs must not depend on scale or the gate could never match a
// committed short baseline.
func DefaultRegistry(short bool) *Registry {
	r := NewRegistry()
	simN, simRepeats := 200, 5
	realN, realRepeats := 192, 5
	if short {
		simN, simRepeats = 64, 3
		realN, realRepeats = 96, 3
	}
	// Simulator substrate: deterministic cycle counts on the paper's
	// Iris model — the gate set. Kernels cover the paper's three
	// workload shapes (triangular gauss, uniform sor, skewed tc).
	for _, k := range []string{"gauss", "sor", "tc-skew"} {
		for _, a := range []string{"afs", "gss", "factoring"} {
			r.Add(Case{Substrate: SubstrateSim, Machine: "iris", Kernel: k, Algo: a,
				N: simN, Phases: 8, Procs: 8, Repeats: simRepeats, Gate: true})
		}
	}
	// One scalability point at higher processor count.
	r.Add(Case{Substrate: SubstrateSim, Machine: "butterfly", Kernel: "gauss", Algo: "afs",
		N: simN, Phases: 8, Procs: 32, Repeats: simRepeats, Gate: true})
	// Real goroutine runtime: wall-clock trends on the host. Tracked,
	// not gated (host-dependent).
	for _, a := range []string{"afs", "gss"} {
		r.Add(Case{Substrate: SubstrateReal, Kernel: "gauss", Algo: a,
			N: realN, Phases: 8, Procs: 4, Repeats: realRepeats, Warmup: 1})
		r.Add(Case{Substrate: SubstrateReal, Kernel: "sor", Algo: a,
			N: realN, Phases: 8, Procs: 4, Repeats: realRepeats, Warmup: 1})
	}
	// Executor-reuse duel: one sample is a whole stream of Phases tiny
	// loops, timed end to end. The "executor" arm submits them all to
	// one persistent pool; the "percall" arm pays goroutine
	// spawn/teardown on every loop; the "executor-obs" arm is the
	// executor arm with a live observability plane attached and an
	// aggressive concurrent scraper — tiny chunks make it the worst
	// case for instrument overhead. The "executor-traced" arm stacks
	// causal span tracing on top of the plane — every submission builds
	// a full span tree — so its gap over "executor" is the whole traced
	// observability story, priced at the nastiest granularity. Tracked
	// for trends, raced by `perflab duel` and budget-checked by
	// `perflab overhead` in CI's perf-smoke job; not gated (wall time).
	loops, loopN := 400, 256
	if short {
		loops, loopN = 160, 128
	}
	for _, a := range []string{"executor", "percall", "executor-obs", "executor-traced"} {
		r.Add(Case{Substrate: SubstrateReal, Kernel: "many-small-loops", Algo: a,
			N: loopN, Phases: loops, Procs: 4, Repeats: realRepeats, Warmup: 1})
	}
	// Observability overhead at realistic granularity: same machinery
	// as many-small-loops but with loops big enough that the per-chunk
	// instrument cost (roughly constant per submission — chunk count
	// grows with P·log N, not N) amortises to a few percent or less.
	// `perflab overhead` gates the executor vs executor-obs pair here
	// at a tight budget (and the many-small-loops pair at a loose one);
	// CI also gates executor vs executor-traced at 1.3x.
	// The "executor-triage" arm stacks the full auto-triage pipeline on
	// executor-obs — armed watchdog ticking fast, runtime sampler, and a
	// bundle capturer wired in — and doubles as a self-test: a steady
	// workload must capture zero bundles, so CI's overhead gate
	// (executor-obs vs executor-triage ≤ 1.1x) prices an armed-and-quiet
	// detector, not a firing one.
	steadyLoops, steadyN := 20, 1<<20
	if short {
		steadyLoops, steadyN = 10, 1<<20
	}
	for _, a := range []string{"executor", "executor-obs", "executor-traced", "executor-triage"} {
		r.Add(Case{Substrate: SubstrateReal, Kernel: "steady-loops", Algo: a,
			N: steadyN, Phases: steadyLoops, Procs: 4, Repeats: realRepeats, Warmup: 1})
	}
	// Serving-layer admission overhead: the same stream of spin jobs
	// submitted directly to one persistent executor ("direct") vs
	// through internal/serve's multi-tenant admission pipeline
	// ("served" — token bucket, fair queue, dispatcher hand-off). Both
	// arms build the job from the identical serializable Spec per
	// submission, so the gap is pure service wrapper. `perflab
	// overhead` gates the pair at 1.2x in CI's perf-smoke job; not
	// baselined-gated (wall time).
	serveJobs, serveN := 150, 1024
	if short {
		serveJobs = 60
	}
	for _, a := range []string{"direct", "served"} {
		r.Add(Case{Substrate: SubstrateReal, Kernel: "serve-steady", Algo: a,
			N: serveN, Phases: serveJobs, Procs: 4, Repeats: realRepeats, Warmup: 1})
	}
	return r
}
