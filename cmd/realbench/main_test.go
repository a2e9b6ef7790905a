package main

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/cli"
	"repro/internal/job"
	"repro/internal/telemetry"
)

func TestValidateArgs(t *testing.T) {
	if err := validateArgs(384, 16, 3); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	cases := []struct {
		n, phases, repeats int
		wantFlag           string
	}{
		{384, 16, 0, "-repeats"},
		{384, 16, -2, "-repeats"},
		{0, 16, 3, "-n"},
		{384, 0, 3, "-phases"},
	}
	for _, c := range cases {
		err := validateArgs(c.n, c.phases, c.repeats)
		if err == nil {
			t.Errorf("validateArgs(%d, %d, %d): no error", c.n, c.phases, c.repeats)
			continue
		}
		if !strings.Contains(err.Error(), c.wantFlag) {
			t.Errorf("validateArgs(%d, %d, %d) = %q, should name %s",
				c.n, c.phases, c.repeats, err, c.wantFlag)
		}
	}
}

// The sweep flags must reject unknown names with a pointer to what is
// known, not produce an empty table.
func TestSweepFlagRejection(t *testing.T) {
	if _, err := cli.ParseAlgos("afs,warp-drive"); err == nil {
		t.Error("unknown algorithm accepted")
	} else if !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "AFS") {
		t.Errorf("algo error unhelpful: %v", err)
	}
	for _, bad := range []string{"", "1,2,zero", "0", "-1", "1,,4"} {
		if _, err := cli.ParseProcs(bad); err == nil {
			t.Errorf("ParseProcs(%q): no error", bad)
		}
	}
	if counts, err := cli.ParseProcs("1, 2,4"); err != nil || len(counts) != 3 {
		t.Errorf("valid worker list rejected: %v %v", counts, err)
	}
}

func TestRealKernelUnknown(t *testing.T) {
	_, _, err := kernelSpec("nope", 8, 2)
	if err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if !strings.Contains(err.Error(), "-kernel") {
		t.Errorf("error %q does not name the -kernel flag", err)
	}
	for _, name := range job.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name known kernel %q", err, name)
		}
	}
}

// Every registry kernel runs as one phased loop: its event stream
// passes tracecheck, and the metrics series holds one sample per
// phase, numbered 0..Phases-1 (per-sweep runs would restart at 0).
func TestRealKernelsOnePhasedLoop(t *testing.T) {
	for _, name := range job.Names() {
		t.Run(name, func(t *testing.T) {
			spec := job.Spec{Kernel: name, Params: job.Params{N: 24, Phases: 2, Work: 1}}
			inst, err := job.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			stream := telemetry.NewSyncStream()
			reg := telemetry.NewRegistry()
			st, err := runKernel(spec, 2, "afs", repro.WithEvents(stream), repro.WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			if st.Phases != inst.Phases {
				t.Errorf("ran %d phases, want %d", st.Phases, inst.Phases)
			}
			if err := telemetry.Check(stream.Events()).Err(); err != nil {
				t.Errorf("tracecheck: %v", err)
			}
			series := reg.Series()
			if len(series) != inst.Phases {
				t.Fatalf("%d metrics samples, want one per phase (%d)", len(series), inst.Phases)
			}
			for i, s := range series {
				if s.Step != i {
					t.Errorf("sample %d labelled step %d", i, s.Step)
				}
			}
		})
	}
}
