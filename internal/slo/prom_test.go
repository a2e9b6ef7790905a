package slo

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exposition bytes of a hand-built
// report: an observed and an unobserved objective, breaching and
// healthy, each with two windows whose durations and burn rates
// exercise the float formatting.
func TestWritePromGolden(t *testing.T) {
	rep := Report{
		Ticks: 1234,
		Objectives: []ObjectiveStatus{
			{Objective: Objective{Name: "submission-p99"}, Value: 2.5e7, Observed: true, Breaching: true,
				Windows: []WindowStatus{
					{DurationSecs: 60, BadFraction: 0.25, BurnRate: 25},
					{DurationSecs: 3600, BadFraction: 1.0 / 3, BurnRate: 33.333333333333336},
				}},
			{Objective: Objective{Name: `quote"d`}, Value: 0.5,
				Windows: []WindowStatus{
					{DurationSecs: 0.5, BadFraction: 0, BurnRate: 0},
					{DurationSecs: 1e6, BadFraction: 1e-9, BurnRate: 1e-7},
				}},
		},
	}
	var b strings.Builder
	if err := WriteProm(&b, rep); err != nil {
		t.Fatal(err)
	}
	const want = "7adfc2a70f9483d66ac98cf214753d28b979c7a55eb7729236f505b9db4608ac"
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteProm bytes changed: sha256 %s, want %s\n%s", got, want, b.String())
	}
}
