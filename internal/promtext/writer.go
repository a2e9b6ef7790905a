package promtext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Writer writes one Prometheus text exposition (version 0.0.4). Each
// family is declared once with Family (or a shorthand), then its
// samples follow. Values use the integer form or the shortest 'g'
// float form that round-trips. The first write error sticks: later
// calls do nothing and Err returns it.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter starts an exposition on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (pw *Writer) Err() error { return pw.err }

// Family declares one metric family: its HELP line, then its TYPE
// line (counter or gauge).
func (pw *Writer) Family(name, typ, help string) {
	if pw.err == nil {
		_, pw.err = fmt.Fprintf(pw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
}

// Int writes one sample with an integer value. labels alternate
// label name and value.
func (pw *Writer) Int(name string, v int64, labels ...string) {
	pw.sample(name, strconv.FormatInt(v, 10), labels)
}

// Float writes one sample with a float value. labels alternate label
// name and value.
func (pw *Writer) Float(name string, v float64, labels ...string) {
	pw.sample(name, strconv.FormatFloat(v, 'g', -1, 64), labels)
}

// Counter declares a counter family holding one unlabelled sample.
func (pw *Writer) Counter(name, help string, v int64) {
	pw.Family(name, "counter", help)
	pw.Int(name, v)
}

// Quantiles declares a gauge family with the 0.5, 0.9 and 0.99
// quantile samples, then the gauge family name_count holding the
// number of observations they summarise.
func (pw *Writer) Quantiles(name, help, countHelp string, count int64, p50, p90, p99 float64) {
	pw.Family(name, "gauge", help)
	pw.Float(name, p50, "quantile", "0.5")
	pw.Float(name, p90, "quantile", "0.9")
	pw.Float(name, p99, "quantile", "0.99")
	pw.Family(name+"_count", "gauge", countHelp)
	pw.Int(name+"_count", count)
}

// labelEscaper escapes a label value the way the format requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (pw *Writer) sample(name, value string, labels []string) {
	if pw.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[i+1]))
		b.WriteByte('"')
	}
	if len(labels) > 1 {
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
	_, pw.err = io.WriteString(pw.w, b.String())
}
