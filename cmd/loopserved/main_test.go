package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/livemetrics"
	"repro/internal/promtext"
	"repro/internal/runtimeobs"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/watchdog"
)

// TestCombinedPromValid is the regression test for the combined
// /metrics.prom surface: all four writers concatenated through the
// family deduper must form one valid exposition (promtext rejects
// duplicate # HELP/# TYPE declarations and duplicate sample
// identities). The SLO engine and watchdog are armed with the same
// objective and rule lists run uses, and one served job puts the
// admission series on the plane.
func TestCombinedPromValid(t *testing.T) {
	plane := livemetrics.New(livemetrics.Options{})
	defer plane.Close()
	server, err := serve.New(serve.Options{Procs: 1, Plane: plane})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	spec := job.Spec{Kernel: "spin", Params: job.Params{N: 64, Phases: 1, Work: 1}, Procs: 1}
	if _, err := server.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	sloEng, err := slo.New(plane.Snapshot, objectives(), slo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := watchdog.New(plane.Snapshot, rules(), watchdog.Options{SLO: sloEng})
	if err != nil {
		t.Fatal(err)
	}
	sampler := runtimeobs.NewSampler()
	sampler.Sample()
	sampler.Sample()
	sloEng.Tick()
	wd.Tick()

	var b strings.Builder
	if err := writeCombinedProm(&b, plane, sloEng, wd, sampler); err != nil {
		t.Fatalf("writeCombinedProm: %v", err)
	}
	exp, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("combined scrape is not a valid exposition: %v\n%s", err, b.String())
	}
	// One series from each contributing writer, plus the serving
	// layer's admission counter and one serving objective's SLO row.
	for _, s := range []struct {
		name string
		kv   []string
	}{
		{"loopsched_submissions_total", nil},                                    // plane
		{"loopsched_admission_admitted_total", nil},                             // plane, serving
		{"loopsched_slo_evaluations_total", nil},                                // slo
		{"loopsched_slo_breaching", []string{"objective", "admission-p99"}},     // slo, serving
		{"loopsched_slo_breaching", []string{"objective", "shed-rate-ceiling"}}, // slo, serving
		{"loopsched_watchdog_ticks_total", nil},                                 // watchdog
		{"loopsched_runtime_goroutines", nil},                                   // runtimeobs
	} {
		if _, err := exp.Value(s.name, s.kv...); err != nil {
			t.Errorf("combined scrape missing %s%v: %v", s.name, s.kv, err)
		}
	}
	if v, _ := exp.Value("loopsched_admission_admitted_total"); v != 1 {
		t.Errorf("loopsched_admission_admitted_total = %v, want 1", v)
	}
}
