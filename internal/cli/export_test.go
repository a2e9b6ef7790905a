package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// ExportTelemetry writes each requested output, skips empty paths and
// returns tracecheck's error for a stream that breaks an invariant.
func TestExportTelemetry(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.KindExec, Proc: 0, Lo: 0, Hi: 2, Start: 0, End: 1},
		{Kind: telemetry.KindExec, Proc: 1, Lo: 2, Hi: 4, Start: 0, End: 1},
	}
	reg := telemetry.NewRegistry()
	reg.Counter("iterations").Add(4)
	reg.Snapshot(0)
	dir := t.TempDir()
	trace, series := filepath.Join(dir, "t.json"), filepath.Join(dir, "s.csv")
	var out strings.Builder
	err := ExportTelemetry(&out, events, reg, telemetry.ChromeOptions{Procs: 2, TimeScale: 1}, trace, series, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{trace, series} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", p, err)
		}
	}
	if csv, _ := os.ReadFile(series); !strings.HasPrefix(string(csv), "step,iterations\n0,4\n") {
		t.Errorf("series csv = %q", csv)
	}
	if got := strings.Count(out.String(), "\n"); got != 3 || !strings.Contains(out.String(), "tracecheck: OK") {
		t.Errorf("progress lines = %q", out.String())
	}

	out.Reset()
	overlap := append(events, telemetry.Event{Kind: telemetry.KindExec, Proc: 1, Lo: 1, Hi: 3, Start: 1, End: 2})
	if err := ExportTelemetry(&out, overlap, reg, telemetry.ChromeOptions{}, "", "", true); err == nil {
		t.Error("tracecheck accepted an iteration executed twice")
	}
	if out.Len() != 0 {
		t.Errorf("wrote %q with no output paths and a failing check", out.String())
	}
}
