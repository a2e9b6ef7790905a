package livemetrics

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exposition bytes of a hand-built,
// fully populated snapshot: every counter, the three quantile
// families, per-worker rows, the admission block with per-tenant
// series (one tenant name needing escapes), and exemplars including a
// duplicated trace ID and values that format with exponents.
func TestWritePromGolden(t *testing.T) {
	q := func(n int64, p50, p90, p99 float64) Quantiles {
		return Quantiles{Count: n, P50: p50, P90: p90, P99: p99}
	}
	s := Snapshot{
		UptimeSeconds: 12.5,
		Counters: Counters{Submissions: 41, Completed: 38, Cancellations: 2, Panics: 1,
			Chunks: 1234567, Steals: 89, MigratedIters: 4096},
		Submission: q(41, 1.5e6, 2.25e6, 1.0000001e7),
		Chunk:      q(1234567, 850, 1200.5, 4e4),
		Steal:      q(0, 0, 0, 0),
		Workers: []WorkerSnapshot{
			{Worker: 0, Chunks: 600000, AffinityHitRatio: 0.975, Utilization: 1, QueueDepth: 12},
			{Worker: 1, Chunks: 634567, AffinityHitRatio: 1.0 / 3, Utilization: 0.125, QueueDepth: 0},
		},
		FlightDroppedEvents: 7, FlightDroppedProv: 3,
		Admission: &AdmissionSnapshot{
			Admitted: 40, Shed: 5, Rejected: 1,
			Wait: q(40, 1e-7, 2.5e5, 3e9),
			Tenants: []TenantSnapshot{
				{Tenant: "default", Submitted: 30, Admitted: 28, Shed: 1, Rejected: 1, Completed: 27},
				{Tenant: `odd "name" \ here`, Submitted: 16, Admitted: 12, Shed: 4, Completed: 11},
			},
		},
		SubmissionExemplars: []Exemplar{
			{TraceID: 17, LatencyNS: 2.5e6},
			{TraceID: 3, LatencyNS: 9.75e6},
			{TraceID: 17, LatencyNS: 1e5},
			{TraceID: 18446744073709551615, LatencyNS: 123456789},
		},
	}
	var b strings.Builder
	if err := WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	const want = "757c15ee8231ea3942672cbfe5b289d67c3bd5fc509d041a98b6cd5e8275549a"
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteProm bytes changed: sha256 %s, want %s\n%s", got, want, b.String())
	}
}
