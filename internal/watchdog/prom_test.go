package watchdog

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exposition bytes of a hand-built
// status: rules covering every observed/warm/cooldown combination, so
// each conditional series is both present and absent.
func TestWritePromGolden(t *testing.T) {
	st := Status{
		Ticks: 98765, Triggers: 4,
		Rules: []RuleStatus{
			{Rule: Rule{Name: "affinity-drop"}, Observed: true, Value: 0.875, Baseline: 0.97, Warm: true, Firings: 2},
			{Rule: Rule{Name: "latency-spike"}, Observed: true, Value: 3.2e7, Baseline: 1.25e6, Warm: true, CooldownLeft: 5, Firings: 1},
			{Rule: Rule{Name: "steal-storm"}, Observed: true, Value: 1e-5},
			{Rule: Rule{Name: "cold"}},
		},
	}
	var b strings.Builder
	if err := WriteProm(&b, st); err != nil {
		t.Fatal(err)
	}
	const want = "3668c680d9fce3d2572777c2c774bed028dda623fd98871ebd2cf7e0b5a585b7"
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteProm bytes changed: sha256 %s, want %s\n%s", got, want, b.String())
	}
}
