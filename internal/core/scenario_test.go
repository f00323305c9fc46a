package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/metrics"
	"meryn/internal/workload"
)

// mixCells returns the four frameworks-mix cells at one seed: bursty
// scale-out services, canary serverless at a 120 s idle gap, volatile
// spot prices and heavy chaos.
func mixCells(seed int64) []exp.Scenario {
	return []exp.Scenario{
		exp.ServiceScenario(exp.ServiceScenarioConfig{Seed: seed, Policy: exp.ReplicaPolicyScaleOut, LoadMult: 1.3, BurstAmp: 2.5}),
		exp.ServerlessScenario(exp.ServerlessScenarioConfig{Seed: seed, IdleGapS: 120, ColdStartS: 10, ConcTarget: 1, Canary: true}),
		exp.SpotScenario(exp.SpotScenarioConfig{Seed: seed, Policy: exp.SpotPolicySpot, Vol: 0.2, BidMult: 1.1}),
		exp.ChaosScenario(exp.ChaosScenarioConfig{Seed: seed, Policy: exp.SpotPolicySpot, Intensity: exp.ChaosHeavy}),
	}
}

// openScenario builds sc's platform as Scenario.Run does, opens a
// session on it and submits the workload.
func openScenario(t *testing.T, sc exp.Scenario) (*core.Platform, *core.Session) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Policy, cfg.Seed = sc.Policy, sc.Seed
	if sc.Mutate != nil {
		sc.Mutate(&cfg)
	}
	p, err := core.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Setup != nil {
		sc.Setup(p)
	}
	w := sc.Workload
	if w == nil {
		w = workload.Paper(workload.DefaultPaperConfig())
	}
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range w {
		if _, err := s.SubmitWith(app, nil); err != nil {
			t.Fatal(err)
		}
	}
	return p, s
}

// TestPollOracleIsDigestNeutral: event-driven batch Application
// Controllers reproduce the per-interval poll exactly. A run's session
// digest and results (the ledger records and usage series included)
// are the same with the poll forced, through each scenario's own Setup;
// only the count of events fired differs, and it grows, so the poll
// took effect. Seeds 1–3 of the paper scenario under both policies and
// of the four frameworks-mix cells.
func TestPollOracleIsDigestNeutral(t *testing.T) {
	run := func(t *testing.T, sc exp.Scenario) ([]byte, uint64, uint64) {
		t.Helper()
		_, s := openScenario(t, sc)
		res, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		r := *res
		r.EventsFired = 0
		b, err := json.Marshal(struct {
			Results        core.Results
			Records        []*metrics.AppRecord
			Private, Cloud []metrics.Point
		}{r, res.Ledger.All(), res.PrivateSeries.Points(), res.CloudSeries.Points()})
		if err != nil {
			t.Fatal(err)
		}
		return b, s.Digest(), res.EventsFired
	}
	for seed := int64(1); seed <= 3; seed++ {
		scenarios := append([]exp.Scenario{
			{Policy: core.PolicyMeryn, Seed: seed, Label: "paper meryn"},
			{Policy: core.PolicyStatic, Seed: seed, Label: "paper static"},
		}, mixCells(seed)...)
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.Label, seed), func(t *testing.T) {
				want, wantDigest, events := run(t, sc)
				setup := sc.Setup
				sc.Setup = func(p *core.Platform) {
					core.PollControllers(p)
					if setup != nil {
						setup(p)
					}
				}
				got, digest, polled := run(t, sc)
				if polled <= events {
					t.Fatalf("polled run fired %d events, event-driven %d: the poll did not take effect", polled, events)
				}
				if digest != wantDigest {
					t.Fatalf("polled: digest %016x, %016x event-driven", digest, wantDigest)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("polled: results differ from the event-driven run")
				}
			})
		}
	}
}
