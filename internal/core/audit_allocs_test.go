package core_test

import (
	"fmt"
	"testing"

	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// TestAuditNowAllocsZero: a barrier allocates nothing on any platform
// shape: the paper platform (Meryn policy, the first paper-burst seed)
// and the four frameworks-mix cells (bursty scale-out services, canary
// serverless at a 120 s idle gap, volatile spot, heavy chaos), each
// stepped to 300, 600 and 1200 s.
func TestAuditNowAllocsZero(t *testing.T) {
	const seed = 1000001
	shapes := []exp.Scenario{
		{Policy: core.PolicyMeryn, Seed: seed, Label: "paper"},
		exp.ServiceScenario(exp.ServiceScenarioConfig{Seed: seed, Policy: exp.ReplicaPolicyScaleOut, LoadMult: 1.3, BurstAmp: 2.5}),
		exp.ServerlessScenario(exp.ServerlessScenarioConfig{Seed: seed, IdleGapS: 120, ColdStartS: 10, ConcTarget: 1, Canary: true}),
		exp.SpotScenario(exp.SpotScenarioConfig{Seed: seed, Policy: exp.SpotPolicySpot, Vol: 0.2, BidMult: 1.1}),
		exp.ChaosScenario(exp.ChaosScenarioConfig{Seed: seed, Policy: exp.SpotPolicySpot, Intensity: exp.ChaosHeavy}),
	}
	for _, sc := range shapes {
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
		for _, at := range []float64{300, 600, 1200} {
			t.Run(fmt.Sprintf("%s/t=%g", sc.Label, at), func(t *testing.T) {
				s.Step(sim.Seconds(at))
				if allocs := testing.AllocsPerRun(100, func() {
					if err := p.AuditNow(); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Fatalf("AuditNow allocates %v times per barrier, want 0", allocs)
				}
			})
		}
	}
}
