package livemetrics

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Recorder is the bounded flight recorder: fixed-size rings of the
// most recent telemetry events and provenance records across
// submissions, so the last moments before an anomaly are always
// recoverable without paying full-trace memory. Each submission feeds
// the recorder through the observer ForSubmission returns; Dump merges the
// rings into one coherent stream by rebasing every submission's
// step numbers and zero-based clocks onto a shared axis.
type Recorder struct {
	mu  sync.Mutex
	evs ring[flightEv]
	pvs ring[flightPv]

	subSeq atomic.Int64

	anomMu  sync.Mutex
	anomaly *FlightDump
	anomSeq atomic.Int64
}

type flightEv struct {
	sub int64
	e   telemetry.Event
}

type flightPv struct {
	sub int64
	p   telemetry.Prov
}

func newRecorder(evCap, pvCap int) *Recorder {
	if evCap < 1 {
		evCap = 1
	}
	if pvCap < 1 {
		pvCap = 1
	}
	return &Recorder{evs: ring[flightEv]{buf: make([]flightEv, evCap)},
		pvs: ring[flightPv]{buf: make([]flightPv, pvCap)}}
}

// ring is a fixed-capacity buffer that overwrites its oldest entry
// when full, counting the evictions.
type ring[T any] struct {
	buf     []T
	next    int
	full    bool
	dropped int64
}

func (g *ring[T]) push(v T) {
	if g.full {
		g.dropped++
	}
	g.buf[g.next] = v
	g.next++
	if g.next == len(g.buf) {
		g.next = 0
		g.full = true
	}
}

// ordered returns the ring's contents oldest-first.
func (g *ring[T]) ordered() []T {
	if !g.full {
		return append([]T(nil), g.buf[:g.next]...)
	}
	out := make([]T, 0, len(g.buf))
	out = append(out, g.buf[g.next:]...)
	return append(out, g.buf[:g.next]...)
}

// ForSubmission allocates a submission slot and returns the observer
// that captures its records, tagged with the slot for later rebasing:
// every record lands in the event ring as one telemetry.Event, and an
// exec record also lands in the provenance ring as one telemetry.Prov,
// both under a single acquisition of the recorder lock. Compose it
// with the submission's other observers via telemetry.Observers.
func (r *Recorder) ForSubmission() telemetry.Observer {
	return subObserver{r, r.subSeq.Add(1)}
}

type subObserver struct {
	r   *Recorder
	sub int64
}

func (s subObserver) Observe(rec telemetry.Record) {
	r := s.r
	r.mu.Lock()
	r.evs.push(flightEv{s.sub, rec.Event()})
	if rec.Kind == telemetry.KindExec {
		r.pvs.push(flightPv{s.sub, rec.Prov()})
	}
	r.mu.Unlock()
}

// Dropped reports how many records each ring has evicted since
// creation.
func (r *Recorder) Dropped() (events, prov int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evs.dropped, r.pvs.dropped
}

// FlightDump is one frozen capture of the rings, rebased onto a single
// step/time axis.
type FlightDump struct {
	// Reason says why the dump was taken ("scrape", "panic: …").
	Reason string `json:"reason"`
	// Submissions counts the distinct submissions represented.
	Submissions int `json:"submissions"`
	// DroppedEvents / DroppedProv are ring evictions up to the dump.
	DroppedEvents int64 `json:"dropped_events"`
	DroppedProv   int64 `json:"dropped_prov"`
	// Events and Prov are in capture order with rebased Step/Start/End.
	Events []telemetry.Event `json:"events"`
	Prov   []telemetry.Prov  `json:"prov,omitempty"`
}

// Dump freezes the rings into one coherent stream. Submissions number
// their phases from 0 and their clocks from their own start, so the
// dump shifts each captured submission onto a shared axis: submission
// g's steps land after all of g-1's steps and its clock starts where
// g-1's last event ended. Provenance records reuse the offsets derived
// from the event ring; records of submissions whose events were all
// evicted are omitted (their axis position is unknowable).
func (r *Recorder) Dump(reason string) *FlightDump {
	r.mu.Lock()
	evs := r.evs.ordered()
	pvs := r.pvs.ordered()
	d := &FlightDump{Reason: reason, DroppedEvents: r.evs.dropped, DroppedProv: r.pvs.dropped}
	r.mu.Unlock()

	// One pass over the event ring establishes each submission's step
	// and time offsets, in arrival order (the engine serialises
	// submissions, so each one's events are contiguous).
	type offsets struct {
		step    int
		time    float64
		maxStep int
		maxEnd  float64
	}
	subOff := map[int64]*offsets{}
	var order []int64
	stepOff, timeOff := 0, 0.0
	var cur *offsets
	for _, fe := range evs {
		o, ok := subOff[fe.sub]
		if !ok {
			if cur != nil {
				stepOff += cur.maxStep + 1
				timeOff += cur.maxEnd
			}
			o = &offsets{step: stepOff, time: timeOff}
			subOff[fe.sub] = o
			order = append(order, fe.sub)
			cur = o
		}
		if fe.e.Step > o.maxStep {
			o.maxStep = fe.e.Step
		}
		if fe.e.End > o.maxEnd {
			o.maxEnd = fe.e.End
		}
	}
	d.Submissions = len(order)

	d.Events = make([]telemetry.Event, 0, len(evs))
	for _, fe := range evs {
		o := subOff[fe.sub]
		e := fe.e
		e.Step += o.step
		e.Start += o.time
		e.End += o.time
		d.Events = append(d.Events, e)
	}
	for _, fp := range pvs {
		o, ok := subOff[fp.sub]
		if !ok {
			continue
		}
		p := fp.p
		p.Step += o.step
		p.Start += o.time
		p.End += o.time
		d.Prov = append(d.Prov, p)
	}
	return d
}

// Consistent trims the dump to fully captured program steps — those
// whose phase-begin and phase-end events both survived eviction — and
// returns the matching events and provenance records. The ring evicts
// oldest-first and a step's phase-begin precedes all of its work, so a
// surviving begin implies the whole step survived; the trimmed stream
// therefore satisfies telemetry.Check's coverage invariant and is safe
// to feed to forensics or tracecheck.
func (d *FlightDump) Consistent() ([]telemetry.Event, []telemetry.Prov) {
	begin := map[int]bool{}
	end := map[int]bool{}
	for _, e := range d.Events {
		switch e.Kind {
		case telemetry.KindPhaseBegin:
			begin[e.Step] = true
		case telemetry.KindPhaseEnd:
			end[e.Step] = true
		}
	}
	keep := func(s int) bool { return begin[s] && end[s] }
	var evs []telemetry.Event
	for _, e := range d.Events {
		if keep(e.Step) {
			evs = append(evs, e)
		}
	}
	var pvs []telemetry.Prov
	for _, p := range d.Prov {
		if keep(p.Step) {
			pvs = append(pvs, p)
		}
	}
	return evs, pvs
}

// NoteAnomaly freezes the rings under the given reason and stores the
// dump in the anomaly slot (latest wins), so the moments before a
// panic or cancellation survive subsequent traffic.
func (r *Recorder) NoteAnomaly(reason string) {
	d := r.Dump(reason)
	r.anomMu.Lock()
	r.anomaly = d
	r.anomMu.Unlock()
	r.anomSeq.Add(1)
}

// AnomalySeq counts anomaly dumps taken since creation — the
// monotonic edge the watchdog's flight-freeze trigger watches, so a
// panic or cancellation that froze the rings also produces a
// diagnostic bundle.
func (r *Recorder) AnomalySeq() int64 { return r.anomSeq.Load() }

// Anomaly returns the most recent anomaly dump, or nil.
func (r *Recorder) Anomaly() *FlightDump {
	r.anomMu.Lock()
	defer r.anomMu.Unlock()
	return r.anomaly
}
