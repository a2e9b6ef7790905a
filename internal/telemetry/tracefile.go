package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Meta identifies where a forensics trace file came from.
type Meta struct {
	// Label is a human-readable run name ("afs/sor/symmetry/p8").
	Label string `json:"label,omitempty"`
	// Substrate is "sim" or "real".
	Substrate string `json:"substrate,omitempty"`
	Machine   string `json:"machine,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Algo      string `json:"algo,omitempty"`
	Procs     int    `json:"procs"`
	// TimeUnit is "cycles" (simulator) or "ns" (real runtime).
	TimeUnit string `json:"time_unit,omitempty"`
}

// Unit returns the time unit, defaulting to "cycles".
func (m Meta) Unit() string {
	if m.TimeUnit == "" {
		return "cycles"
	}
	return m.TimeUnit
}

// Name returns the best available short name for the run.
func (m Meta) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.Algo != "" {
		return m.Algo
	}
	return "run"
}

// Trace is the forensics trace file: run identity plus the raw event
// stream and per-chunk provenance records. It is the one wire format
// that the simulator capture, the live flight recorder and the span
// tracer write, and that internal/forensics and cmd/loopdoctor read.
type Trace struct {
	Meta   Meta    `json:"meta"`
	Events []Event `json:"events,omitempty"`
	Prov   []Prov  `json:"prov,omitempty"`
}

// Write serialises the trace as JSON.
func (t *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace parses a JSON trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("bad trace file: %w", err)
	}
	return &t, nil
}

// ReadTraceFile reads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
