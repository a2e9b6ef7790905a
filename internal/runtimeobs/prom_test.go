package runtimeobs

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exposition bytes of a hand-built
// runtime snapshot, with both quantile families populated.
func TestWritePromGolden(t *testing.T) {
	s := Snapshot{
		SampledAgoSeconds: 0.25, IntervalSeconds: 1,
		Goroutines: 42, HeapLiveBytes: 1 << 33, GCCycles: 1234, GCCPUFraction: 0.0125,
		GCPause:      Quantiles{Count: 9, P50: 51200, P90: 1.6384e5, P99: 2.62144e6},
		SchedLatency: Quantiles{Count: 1e6, P50: 256, P90: 1e3, P99: 1.048576e7},
	}
	var b strings.Builder
	if err := WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	const want = "48ca70382f765a7de6aba5d04d09bc5394898705410a5089d627335fe869278d"
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteProm bytes changed: sha256 %s, want %s\n%s", got, want, b.String())
	}
}
