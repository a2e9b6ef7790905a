package telemetry

// Record is one fact the real goroutine runtime reports about a
// submission: an executed chunk, a steal, a contended central-queue
// wait, or a phase boundary. It is the runtime's single hot-path
// value — the engine builds one Record per fact and makes one Observe
// call — and every reader (event streams, provenance streams, the live
// plane, the span tracer) derives its own view from it. Like Event it
// is a plain value with no pointers.
//
// Times are nanoseconds since the submission started.
type Record struct {
	// Kind is KindExec, KindSteal, KindQueueWait, KindPhaseBegin or
	// KindPhaseEnd.
	Kind Kind
	// Step is the program step (outer-loop phase).
	Step int
	// Proc is the acting worker (-1 for phase boundaries).
	Proc int
	// Owner is the queue the chunk came from: the owning worker for an
	// exec record, the victim for a steal, -1 for central queues and
	// global records.
	Owner int
	// Stolen marks a migrated chunk: every steal record and the exec
	// record of the chunk it moved.
	Stolen bool
	// Lo, Hi is the iteration range [Lo, Hi); on KindPhaseBegin Hi is
	// the phase's iteration count.
	Lo, Hi int
	// Start, End is the fact's window: the chunk's execution, the steal
	// (victim lock acquisition through chunk removal), the lock wait,
	// or a zero-width instant for phase boundaries.
	Start, End float64
	// Wait is the measured dispatch wait immediately preceding an exec
	// record's window (central-queue lock wait or steal latency); 0
	// when unmeasured and on every other kind.
	Wait float64
}

// Event lowers the record to the event stream's shape.
func (r Record) Event() Event {
	e := Event{Kind: r.Kind, Proc: r.Proc, Victim: -1, Step: r.Step,
		Lo: r.Lo, Hi: r.Hi, Start: r.Start, End: r.End}
	if r.Kind == KindSteal {
		e.Victim = r.Owner
	}
	return e
}

// Prov lowers an exec record to its provenance record. The host cannot
// split memory stalls out of the window, so the whole span is reported
// as Compute.
func (r Record) Prov() Prov {
	return Prov{Step: r.Step, Proc: r.Proc, Owner: r.Owner, Stolen: r.Stolen,
		Lo: r.Lo, Hi: r.Hi, Start: r.Start, End: r.End,
		QueueWait: r.Wait, Compute: r.End - r.Start}
}

// An Observer consumes the real runtime's records. Exec, steal and
// queue-wait records are delivered inline from worker goroutines, so
// implementations must be safe for concurrent use and cheap; phase
// records come from the submitting goroutine, before the phase's
// workers start and after its barrier drains.
type Observer interface {
	Observe(Record)
}

type multiObserver []Observer

func (m multiObserver) Observe(r Record) {
	for _, o := range m {
		o.Observe(r)
	}
}

// Observers fans records out to several observers, dropping nils; it
// returns nil when none remain so the engine keeps its single nil
// check.
func Observers(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

type eventsOf struct{ s Sink }

func (o eventsOf) Observe(r Record) { o.s.Emit(r.Event()) }

// EventsOf adapts an event sink: every record becomes one Event. The
// sink must be safe for concurrent use (NewSyncStream, Synchronized).
// A nil sink gives a nil Observer.
func EventsOf(s Sink) Observer {
	if s == nil {
		return nil
	}
	return eventsOf{s}
}

type provOf struct{ s ProvSink }

func (o provOf) Observe(r Record) {
	if r.Kind == KindExec {
		o.s.EmitProv(r.Prov())
	}
}

// ProvOf adapts a provenance sink: every exec record becomes one Prov.
// The sink must be safe for concurrent use (NewSyncProvStream). A nil
// sink gives a nil Observer.
func ProvOf(s ProvSink) Observer {
	if s == nil {
		return nil
	}
	return provOf{s}
}
