package core_test

import (
	"fmt"
	"testing"

	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/sim"
)

// TestAuditNowAllocsZero: a barrier allocates nothing on any platform
// shape: the paper platform (Meryn policy, the first paper-burst seed)
// and the four frameworks-mix cells, each stepped to 300, 600 and
// 1200 s.
func TestAuditNowAllocsZero(t *testing.T) {
	const seed = 1000001
	shapes := append([]exp.Scenario{{Policy: core.PolicyMeryn, Seed: seed, Label: "paper"}}, mixCells(seed)...)
	for _, sc := range shapes {
		p, s := openScenario(t, sc)
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
