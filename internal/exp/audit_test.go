package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// mixCells returns the four frameworks-mix cells at one seed: bursty
// scale-out services, canary serverless at a 120 s idle gap, volatile
// spot prices and heavy chaos.
func mixCells(seed int64) []Scenario {
	return []Scenario{
		ServiceScenario(ServiceScenarioConfig{Seed: seed, Policy: ReplicaPolicyScaleOut, LoadMult: 1.3, BurstAmp: 2.5}),
		ServerlessScenario(ServerlessScenarioConfig{Seed: seed, IdleGapS: 120, ColdStartS: 10, ConcTarget: 1, Canary: true}),
		SpotScenario(SpotScenarioConfig{Seed: seed, Policy: SpotPolicySpot, Vol: 0.2, BidMult: 1.1}),
		ChaosScenario(ChaosScenarioConfig{Seed: seed, Policy: SpotPolicySpot, Intensity: ChaosHeavy}),
	}
}

// runAudited runs sc through a session, as Scenario.Run does, with the
// auditor configuration replaced by audit when it is non-nil. It
// returns the results and the session digest.
func runAudited(t *testing.T, sc Scenario, audit *core.AuditConfig) (*core.Results, uint64) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Policy, cfg.Seed = sc.Policy, sc.Seed
	if sc.Mutate != nil {
		sc.Mutate(&cfg)
	}
	if audit != nil {
		cfg.Audit = audit
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
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return res, s.Digest()
}

// TestAuditorIsDigestNeutral: the auditor draws nothing and writes
// nothing, so a run's session digest and results (the ledger records
// and usage series included) are the same with it disabled, at the
// scenario's own cadence and at a barrier every simulated second. Only
// the event and audit counts differ. Seeds 1–3 of the paper scenario
// under both policies and of the four frameworks-mix cells.
func TestAuditorIsDigestNeutral(t *testing.T) {
	results := func(res *core.Results) []byte {
		r := *res
		r.EventsFired, r.AuditChecks = 0, 0
		b, err := json.Marshal(struct {
			Results        core.Results
			Records        []*metrics.AppRecord
			Private, Cloud []metrics.Point
		}{r, res.Ledger.All(), res.PrivateSeries.Points(), res.CloudSeries.Points()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for seed := int64(1); seed <= 3; seed++ {
		scenarios := append([]Scenario{
			{Policy: core.PolicyMeryn, Seed: seed, Label: "paper meryn"},
			{Policy: core.PolicyStatic, Seed: seed, Label: "paper static"},
		}, mixCells(seed)...)
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.Label, seed), func(t *testing.T) {
				offRes, offDigest := runAudited(t, sc, &core.AuditConfig{Disabled: true})
				if offRes.AuditChecks != 0 {
					t.Fatalf("disabled auditor ran %d checks", offRes.AuditChecks)
				}
				want := results(offRes)
				var checks int64
				for _, audit := range []*core.AuditConfig{nil, {Every: sim.Seconds(1)}} {
					res, digest := runAudited(t, sc, audit)
					if res.AuditChecks <= checks {
						t.Fatalf("audit %+v ran %d checks, want more than %d", audit, res.AuditChecks, checks)
					}
					checks = res.AuditChecks
					if digest != offDigest {
						t.Fatalf("audit %+v: digest %016x, %016x with the auditor disabled", audit, digest, offDigest)
					}
					if got := results(res); !bytes.Equal(got, want) {
						t.Fatalf("audit %+v: results differ from the run with the auditor disabled", audit)
					}
				}
			})
		}
	}
}
