package telemetry

import (
	"strings"
	"testing"
)

func ganttEvents() []Event {
	return []Event{
		{Kind: KindExec, Proc: 0, Victim: -1, Lo: 0, Hi: 5, Start: 0, End: 50},
		{Kind: KindSteal, Proc: 1, Victim: 0, Lo: 5, Hi: 8, Start: 10, End: 20},
		{Kind: KindExec, Proc: 1, Victim: -1, Lo: 5, Hi: 8, Start: 20, End: 60},
	}
}

// TestSpan: the span covers exec and steal events only; phase
// boundaries, queue waits and cache flushes outside it do not widen it.
func TestSpan(t *testing.T) {
	evs := append([]Event{
		{Kind: KindPhaseBegin, Proc: -1, Victim: -1, Hi: 8, Start: -30, End: -30},
		{Kind: KindQueueWait, Proc: 1, Victim: -1, Start: -20, End: 5},
	}, ganttEvents()...)
	evs = append(evs,
		Event{Kind: KindCacheFlush, Proc: -1, Victim: -1, Start: 90, End: 90},
		Event{Kind: KindPhaseEnd, Proc: -1, Victim: -1, Start: 100, End: 100})
	if s, e := span(evs); s != 0 || e != 60 {
		t.Errorf("span [%v,%v], want [0,60]", s, e)
	}
	if s, e := span(nil); s != 0 || e != 0 {
		t.Error("empty span")
	}
}

// TestSpanSingleEvent: one event defines both ends of the span.
func TestSpanSingleEvent(t *testing.T) {
	s, e := span([]Event{{Kind: KindExec, Proc: 0, Lo: 0, Hi: 3, Start: 42, End: 99}})
	if s != 42 || e != 99 {
		t.Errorf("span [%v,%v], want [42,99]", s, e)
	}
}

func TestGantt(t *testing.T) {
	var b strings.Builder
	WriteGantt(&b, ganttEvents(), 2, 40)
	out := b.String()
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "*") {
		t.Errorf("missing marks:\n%s", out)
	}
	b.Reset()
	WriteGantt(&b, nil, 1, 40)
	if !strings.Contains(b.String(), "empty trace") {
		t.Error("empty trace not handled")
	}
}

func TestSummary(t *testing.T) {
	var b strings.Builder
	WriteSummary(&b, ganttEvents(), 2)
	out := b.String()
	if !strings.Contains(out, "P0") || !strings.Contains(out, "stolen-from 1") {
		t.Errorf("summary wrong:\n%s", out)
	}
}

// TestSummaryEmptyTrace: a stream with no events renders a zero-span
// summary without dividing by zero.
func TestSummaryEmptyTrace(t *testing.T) {
	var b strings.Builder
	WriteSummary(&b, nil, 2)
	out := b.String()
	if !strings.Contains(out, "span 0 cycles") {
		t.Errorf("empty summary:\n%s", out)
	}
	if !strings.Contains(out, "P0") || !strings.Contains(out, "busy   0.0%") {
		t.Errorf("empty summary rows:\n%s", out)
	}
}

// TestGanttZeroDurationAtSpanEnd is the regression test for the
// column-clamp bug: a zero-duration event exactly at the span's end
// used to index column `width`, one past the row buffer.
func TestGanttZeroDurationAtSpanEnd(t *testing.T) {
	evs := []Event{
		{Kind: KindExec, Proc: 0, Victim: -1, Lo: 0, Hi: 4, Start: 0, End: 100},
		{Kind: KindSteal, Proc: 1, Victim: 0, Lo: 4, Hi: 5, Start: 100, End: 100},
	}
	var b strings.Builder
	WriteGantt(&b, evs, 2, 40) // must not panic
	if !strings.Contains(b.String(), "*") {
		t.Errorf("zero-duration steal not drawn:\n%s", b.String())
	}
}

// TestGanttClampsBothEnds: a zero-duration steal at the start of a
// tiny span over a wide width exercises the hi<lo clamp, and a stray
// processor index is skipped instead of panicking.
func TestGanttClampsBothEnds(t *testing.T) {
	evs := []Event{
		{Kind: KindExec, Proc: 0, Victim: -1, Lo: 0, Hi: 1, Start: 50, End: 100},
		{Kind: KindSteal, Proc: 0, Victim: 0, Lo: 0, Hi: 1, Start: 50, End: 50},
		{Kind: KindExec, Proc: 3, Victim: -1, Lo: 1, Hi: 2, Start: 60, End: 70},
	}
	var b strings.Builder
	WriteGantt(&b, evs, 1, 10)
	if !strings.Contains(b.String(), "P0") {
		t.Errorf("gantt:\n%s", b.String())
	}
}
