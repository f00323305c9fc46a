package exp

import (
	"strings"
	"testing"
)

// smallSpotMatrix is the CI-sized grid: one volatility, one bid, both
// policies, two reps.
func smallSpotMatrix() SpotMatrix {
	return SpotMatrix{
		Name:     "spot-smoke",
		Policies: []string{SpotPolicyOnDemand, SpotPolicySpot},
		Vols:     []float64{0.2},
		BidMults: []float64{1.1},
		Reps:     2,
		BaseSeed: 1,
	}
}

func TestSpotGridShape(t *testing.T) {
	res, err := smallSpotMatrix().Spot(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ondemand collapses the bid dimension: 1 cell + 1 spot cell.
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if res.Runs != 4 {
		t.Fatalf("runs = %d, want 4", res.Runs)
	}
	od, sp := res.Cells[0], res.Cells[1]
	if od.Policy != SpotPolicyOnDemand || sp.Policy != SpotPolicySpot {
		t.Fatalf("cell order: %s/%s", od.Policy, sp.Policy)
	}
	// The baseline never touches the spot market.
	if od.SpotSpend.Mean != 0 || od.Revocations.Mean != 0 {
		t.Fatalf("on-demand cell has spot activity: %+v", od)
	}
	// The aggressive spot cell (bid 1.1x under 0.2 volatility) must see
	// the defining risk: revocations, and spot spend from settled
	// partial charges.
	if sp.Revocations.Mean == 0 {
		t.Fatal("no revocations in the aggressive spot cell")
	}
	if sp.SpotSpend.Mean <= 0 {
		t.Fatal("no spot spend settled")
	}
	if !strings.Contains(res.Render(), "revocations") {
		t.Fatal("render malformed")
	}
}

// TestSpotScenarioCompletes: every application in a revocation-heavy
// run still settles (spot retry or on-demand fallback).
func TestSpotScenarioCompletes(t *testing.T) {
	res, err := SpotScenario(SpotScenarioConfig{
		Seed: 3, Policy: SpotPolicySpot, BidMult: 1.05, Vol: 0.25,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Ledger.All() {
		if rec.EndTime == 0 {
			t.Fatalf("app %s never completed (revocations=%d)",
				rec.ID, res.Counters.SpotRevocations.Count)
		}
	}
}
