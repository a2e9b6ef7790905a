package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// daemonPath is a loopserved binary built once for the serve tests.
var daemonPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	daemonPath = filepath.Join(dir, "loopserved")
	build := exec.Command("go", "build", "-o", daemonPath, "repro/cmd/loopserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building loopserved: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.6, trace: trace, tiny: true,
		daemon: daemonPath, out: t.TempDir(), digest: "digest.json"}
}

// result is the parsed report of one run: the JSON last line and every
// "name value unit" text line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	text      map[string]metricValue
}

func runTiny(t *testing.T, c config) result {
	t.Helper()
	var out bytes.Buffer
	if err := bench(c, workloads[c.workload], &out); err != nil {
		t.Fatalf("%s: %v\n%s", c.workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	r.text = map[string]metricValue{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			r.text[f[0]] = metricValue{Value: v, Unit: f[2]}
		}
	}
	return r
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// TestTinyRunsPrintEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that every metric is printed with its unit
// and that every output checked out.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	extras := map[string][]string{
		"sim-sweep":     {"sim_wall_s", "error_frac", "latency_p99_ms", "latency_samples"},
		"serve-kernels": {"error_frac", "latency_p99_ms", "latency_samples"},
		"serve-small":   {"error_frac", "shed_frac", "shed_frac_predicted", "gen_late_ms_p99", "latency_p99_ms", "latency_samples"},
	}
	for _, w := range []string{"sim-sweep", "serve-kernels", "serve-small"} {
		for _, trace := range []bool{false, true} {
			c := tinyConfig(t, w, trace)
			r := runTiny(t, c)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, r.Correct, r.Attempted, r.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: JSON has %d metrics, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: JSON metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), defs...) {
				if m, ok := r.text[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: text metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
			}
			for _, name := range extras[w] {
				if m, ok := r.text[name]; !ok || m.Unit != unitOf(extra, name) {
					t.Errorf("%s trace=%v: text metric %s = %+v, want unit %s", w, trace, name, m, unitOf(extra, name))
				}
			}
			for _, d := range endToEnd {
				if !trace && r.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, d.name, r.Metrics[d.name].Value)
				}
			}
			if trace {
				name := filepath.Join(c.out, "spans-"+w+"-seed7-trace1.jsonl")
				if n := countSpans(t, name); n == 0 {
					t.Errorf("%s: no spans written to %s", w, name)
				}
			}
		}
	}
}

func countSpans(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name == "" || s.Trace == 0 || s.EndNS < s.StartNS {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		n++
	}
	return n
}

// TestWrongDigestRaisesErrorFrac corrupts one digest entry and expects
// every run of that case to count as failed.
func TestWrongDigestRaisesErrorFrac(t *testing.T) {
	d, err := loadDigest("digest.json")
	if err != nil {
		t.Fatal(err)
	}
	name := simCases(true)[0].name
	e := d[name]
	e.Cycles++
	d[name] = e
	b, _ := json.Marshal(d)
	c := tinyConfig(t, "sim-sweep", false)
	c.digest = filepath.Join(t.TempDir(), "digest.json")
	if err := os.WriteFile(c.digest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r := runTiny(t, c)
	if r.Correct || r.Failed == 0 || r.text["error_frac"].Value <= 0 {
		t.Fatalf("corrupt digest entry %s: correct=%v failed=%d error_frac=%v", name, r.Correct, r.Failed, r.text["error_frac"].Value)
	}
}

// TestWrongChecksumRaisesErrorFrac corrupts one serial reference and
// expects the replies of that kernel to count as failed.
func TestWrongChecksumRaisesErrorFrac(t *testing.T) {
	c := tinyConfig(t, "serve-kernels", false)
	env, err := setupServeOnce(c, "", kernelMix(c), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer env.d.stop()
	key := refKey(env.mix[0])
	ref := env.refs[key]
	ref.checksum += 1
	env.refs[key] = ref
	o := &outcome{}
	all, start := env.closedLoop(nil, false, 500*time.Millisecond)
	tally(o, all, start, 500*time.Millisecond)
	if o.failed == 0 || o.correct() {
		t.Fatalf("corrupt reference for %s: failed=%d of %d", key, o.failed, o.attempted)
	}
}

// TestRunOrderIsSeeded checks that each input the seed generates is
// reproducible and that no case, job or ladder rung always comes first.
func TestRunOrderIsSeeded(t *testing.T) {
	firstCase, firstKernel, firstRung := map[int]bool{}, map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= 30; seed++ {
		c := config{seed: seed}
		firstCase[c.rng(1).Perm(len(simCases(false)))[0]] = true
		mix := kernelMix(c)
		if !reflect.DeepEqual(mix, kernelMix(c)) {
			t.Fatalf("seed %d: job mix differs between two calls", seed)
		}
		firstKernel[mix[0].Kernel] = true
		_, order := ladderRound(c.rng(4), mix)
		firstRung[rungs[order[0]]] = true
		a := poissonArrivals(c.rng(3), []float64{100, 50}, time.Second)
		if !reflect.DeepEqual(a, poissonArrivals(c.rng(3), []float64{100, 50}, time.Second)) {
			t.Fatalf("seed %d: arrivals differ between two calls", seed)
		}
	}
	if len(firstCase) < 2 || len(firstKernel) < 2 || len(firstRung) < len(rungs) {
		t.Fatalf("first case %v, first kernel %v, first rung %v: want variety across seeds", keys(firstCase), firstKernel, firstRung)
	}
	// Within one run, too, every rung leads some round.
	rng, lead := config{seed: 1}.rng(4), map[int]bool{}
	for round := 0; round < 60; round++ {
		_, order := ladderRound(rng, kernelMix(config{seed: 1}))
		lead[order[0]] = true
	}
	if len(lead) != len(rungs) {
		t.Fatalf("only rungs %v lead a round", keys(lead))
	}
	a1 := poissonArrivals(config{seed: 1}.rng(3), []float64{100}, time.Second)
	a2 := poissonArrivals(config{seed: 2}.rng(3), []float64{100}, time.Second)
	if reflect.DeepEqual(a1, a2) {
		t.Fatal("seeds 1 and 2 generate the same arrivals")
	}
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestCompareRefusesOtherCPUCount checks that results taken at
// different CPU counts are not compared.
func TestCompareRefusesOtherCPUCount(t *testing.T) {
	a := record{Host: host{NumCPU: 2, GOMAXPROCS: 2}, Workload: "serve-small"}
	b := a
	if err := checkComparable(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Host.NumCPU, b.Host.GOMAXPROCS = 1, 1
	if err := checkComparable(a, b); err == nil {
		t.Fatal("compared results taken at 2 and 1 CPUs")
	}
	b = a
	b.Host.GOMAXPROCS = 1
	if err := checkComparable(a, b); err == nil {
		t.Fatal("compared results taken at GOMAXPROCS 2 and 1")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		}
	}
}
