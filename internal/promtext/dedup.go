package promtext

import (
	"bytes"
	"io"
	"strings"
)

// FamilyDeduper is a line-buffered io.Writer filter for concatenated
// Prometheus expositions: it drops repeated "# HELP" / "# TYPE"
// declarations for a family that has already declared them, and
// passes everything else through untouched. The exposition format
// allows each family at most one of each, so naively concatenating
// two writers that share a family (the loopserved /metrics.prom
// combines the plane, SLO, watchdog, and runtime expositions) would
// produce a scrape real Prometheus rejects; routing the writers
// through one deduper keeps the first declaration and the union of
// the samples.
//
// Sample lines are never filtered — a duplicate sample identity is a
// real bug in the writers, not a formatting artifact, and must stay
// visible to Parse.
type FamilyDeduper struct {
	w    io.Writer
	buf  []byte
	seen map[string]bool
}

// NewFamilyDeduper wraps w.
func NewFamilyDeduper(w io.Writer) *FamilyDeduper {
	return &FamilyDeduper{w: w, seen: map[string]bool{}}
}

// Write buffers to line boundaries and forwards kept lines. It always
// reports the full input consumed; underlying write errors surface on
// the call that flushes the offending line.
func (d *FamilyDeduper) Write(p []byte) (int, error) {
	d.buf = append(d.buf, p...)
	for {
		nl := bytes.IndexByte(d.buf, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := d.buf[:nl+1]
		if d.keep(string(line[:nl])) {
			if _, err := d.w.Write(line); err != nil {
				return len(p), err
			}
		}
		d.buf = d.buf[nl+1:]
	}
}

// Flush forwards any trailing unterminated line. Call once after the
// last Write; writers that end every line with \n (all of this
// repo's) leave nothing to flush.
func (d *FamilyDeduper) Flush() error {
	if len(d.buf) == 0 {
		return nil
	}
	line := d.buf
	d.buf = nil
	if !d.keep(string(line)) {
		return nil
	}
	_, err := d.w.Write(line)
	return err
}

// keep reports whether a line survives: false only for a HELP or TYPE
// declaration whose (kind, family) was already declared.
func (d *FamilyDeduper) keep(line string) bool {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return true
	}
	var kind string
	switch {
	case strings.HasPrefix(rest, "HELP "):
		kind, rest = "H", rest[len("HELP "):]
	case strings.HasPrefix(rest, "TYPE "):
		kind, rest = "T", rest[len("TYPE "):]
	default:
		return true
	}
	family := rest
	if sp := strings.IndexAny(family, " \t"); sp >= 0 {
		family = family[:sp]
	}
	if family == "" {
		return true
	}
	key := kind + " " + family
	if d.seen[key] {
		return false
	}
	d.seen[key] = true
	return true
}
