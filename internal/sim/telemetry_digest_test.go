package sim_test

// Pins the simulator's telemetry bytes: three fixed-seed runs chosen
// so that every record kind appears (steals, queue waits, cache
// flushes, phase boundaries, execs) must reproduce their event and
// provenance streams byte for byte. A refactor of how the simulator
// reports may change the API calls below, never the digests.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/cli"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestTelemetryStreamDigests(t *testing.T) {
	cases := []struct {
		name, machine, kernel, algo string
		n, phases, procs, flush     int
		// kind is the record kind the case exists to exercise.
		kind                telemetry.Kind
		eventsSHA, provsSHA string
	}{
		{"afs-ksr1-steals", "ksr1", "tc-skew", "afs", 64, 0, 8, 0, telemetry.KindSteal,
			"b466373c176d8bc9d29fd540c0069730a1fbd1b1fb2308142d02f13d08da6981",
			"7a8a9e67162b7d12bce261b41d00613225f5e28803460e399a343b6d1548c5bd"},
		{"gss-symmetry-queue-waits", "symmetry", "sor", "gss", 32, 4, 8, 0, telemetry.KindQueueWait,
			"a2584b5f59a33f20a9378dd67c7c5a1764bf142eff637b9e80e55f3a568ff981",
			"7af6709d63f771e1250009aaf672ba78f141cdbc524fb00e2dadb0966e6979ab"},
		{"afs-iris-cache-flush", "iris", "sor", "afs", 24, 6, 4, 2, telemetry.KindCacheFlush,
			"abe11070b969c280d26603134116573191afa4aea645bb4a6093fd4073710284",
			"c5a3101efb7a74e46816d8deb6e59f3204be129d327ddba661a1b08f47f84bc8"},
	}
	for _, c := range cases {
		m, err := machine.ByName(c.machine)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sched.ByName(c.algo)
		if err != nil {
			t.Fatal(err)
		}
		build, _, err := cli.BuildKernel(c.kernel, c.n, c.phases, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		events := telemetry.NewStream()
		prov := telemetry.NewProvStream()
		if _, err := sim.RunOpts(m, c.procs, spec, build(), sim.Options{
			Seed: 7, FlushEverySteps: c.flush,
			Observer: telemetry.Observers(telemetry.EventsOf(events), telemetry.ProvOf(prov)),
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		seen := 0
		for _, e := range events.Events() {
			if e.Kind == c.kind {
				seen++
			}
		}
		if seen == 0 {
			t.Errorf("%s: no %s events", c.name, c.kind)
		}
		if got := digest(t, events.Events()); got != c.eventsSHA {
			t.Errorf("%s: event stream digest %s, want %s", c.name, got, c.eventsSHA)
		}
		if got := digest(t, prov.Records()); got != c.provsSHA {
			t.Errorf("%s: provenance stream digest %s, want %s", c.name, got, c.provsSHA)
		}
	}
}

func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
