package cli

import (
	"fmt"
	"io"
	"os"

	"repro/internal/telemetry"
)

// ExportTelemetry writes the outputs of one instrumented run, as
// paperfigs and realbench request them: a Chrome trace of events to
// traceOut, reg's per-phase series as CSV to metricsOut, and with
// check the tracecheck verdict over events. Empty paths are skipped;
// one progress line per output goes to w.
func ExportTelemetry(w io.Writer, events []telemetry.Event, reg *telemetry.Registry, chrome telemetry.ChromeOptions, traceOut, metricsOut string, check bool) error {
	if traceOut != "" {
		if err := writeFile(traceOut, func(f io.Writer) error {
			return telemetry.WriteChromeTrace(f, events, chrome)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace (%d events) to %s\n", len(events), traceOut)
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, func(f io.Writer) error {
			return telemetry.WriteSeriesCSV(f, reg)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics time series to %s\n", metricsOut)
	}
	if check {
		rep := telemetry.Check(events)
		if err := rep.Err(); err != nil {
			return err
		}
		fmt.Fprintf(w, "tracecheck: OK (%d events, %d steps)\n", rep.Events, rep.Steps)
	}
	return nil
}

// writeFile creates path, writes it and reports the first error,
// the close included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
