package telemetry

import "testing"

// TestRecordAdapters: Observers drops nils and collapses to nil when
// empty (the engine's single nil check), EventsOf lowers every record,
// and ProvOf keeps exec records only.
func TestRecordAdapters(t *testing.T) {
	if Observers() != nil || Observers(nil, EventsOf(nil), ProvOf(nil)) != nil {
		t.Fatal("Observers of nothing should be nil")
	}
	ev := NewStream()
	pv := NewProvStream()
	obs := Observers(nil, EventsOf(ev), ProvOf(pv))
	steal := Record{Kind: KindSteal, Step: 1, Proc: 2, Owner: 0, Stolen: true, Lo: 8, Hi: 12, Start: 5, End: 7}
	exec := Record{Kind: KindExec, Step: 1, Proc: 2, Owner: 0, Stolen: true, Lo: 8, Hi: 12, Start: 7, End: 19, Wait: 2,
		Compute: 9, CacheReload: 2, BusWait: 1, Misses: 3}
	obs.Observe(steal)
	obs.Observe(exec)

	want := []Event{
		{Kind: KindSteal, Proc: 2, Victim: 0, Step: 1, Lo: 8, Hi: 12, Start: 5, End: 7},
		{Kind: KindExec, Proc: 2, Victim: -1, Step: 1, Lo: 8, Hi: 12, Start: 7, End: 19},
	}
	if got := ev.Events(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
	wantProv := Prov{Step: 1, Proc: 2, Owner: 0, Stolen: true, Lo: 8, Hi: 12,
		Start: 7, End: 19, QueueWait: 2, Compute: 9, CacheReload: 2, BusWait: 1, Misses: 3}
	if got := pv.Records(); len(got) != 1 || got[0] != wantProv {
		t.Fatalf("prov = %+v, want [%+v]", got, wantProv)
	}
}
