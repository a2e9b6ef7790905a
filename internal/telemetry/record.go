package telemetry

// Record is one fact an execution substrate reports: an executed
// chunk, a steal, a queue wait, a cache flush or a phase boundary.
// It is the single hot-path value of both the simulator and the real
// goroutine runtime — each builds one Record per fact and makes one
// Observe call — and every reader (event streams, provenance streams,
// the live plane, the span tracer) derives its own view from it. Like
// Event it is a plain value with no pointers.
//
// Times use the substrate's native unit: simulator cycles, or real
// runtime nanoseconds since the submission started.
type Record struct {
	// Kind is KindExec, KindSteal, KindQueueWait, KindPhaseBegin,
	// KindPhaseEnd, or (simulator only) KindCacheFlush.
	Kind Kind
	// Step is the program step (outer-loop phase).
	Step int
	// Proc is the acting worker (-1 for phase boundaries and cache
	// flushes).
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
	// or a zero-width instant for phase boundaries and cache flushes.
	Start, End float64
	// Wait is the measured dispatch wait immediately preceding an exec
	// record's window (central-queue lock wait or steal latency); 0
	// when unmeasured and on every other kind.
	Wait float64
	// Compute, CacheReload and BusWait split an exec record's window
	// into the paper's cost mechanisms (see Prov); Misses counts the
	// chunk's cache misses. The real runtime cannot separate memory
	// stalls on the host, so it reports the whole window as Compute.
	Compute, CacheReload, BusWait float64
	Misses                        int
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

// Prov lowers an exec record to its provenance record.
func (r Record) Prov() Prov {
	return Prov{Step: r.Step, Proc: r.Proc, Owner: r.Owner, Stolen: r.Stolen,
		Lo: r.Lo, Hi: r.Hi, Start: r.Start, End: r.End, QueueWait: r.Wait,
		Compute: r.Compute, CacheReload: r.CacheReload, BusWait: r.BusWait, Misses: r.Misses}
}

// An Observer consumes a substrate's records. The simulator delivers
// every record from its one goroutine. The real runtime delivers exec,
// steal and queue-wait records inline from worker goroutines, so
// observers attached to it must be safe for concurrent use and cheap;
// its phase records come from the submitting goroutine, before the
// phase's workers start and after its barrier drains.
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

// EventsOf adapts an event sink: every record becomes one Event. On the
// real runtime the sink must be safe for concurrent use
// (NewSyncStream). A nil sink gives a nil Observer.
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
// On the real runtime the sink must be safe for concurrent use
// (NewSyncProvStream). A nil sink gives a nil Observer.
func ProvOf(s ProvSink) Observer {
	if s == nil {
		return nil
	}
	return provOf{s}
}
