package exp

import (
	"strings"
	"testing"
)

// smallServerlessMatrix is the CI-sized grid: one gap, one cold-start
// cost, both concurrency targets, two reps.
func smallServerlessMatrix() ServerlessMatrix {
	return ServerlessMatrix{
		Name:       "serverless-smoke",
		IdleGaps:   []float64{120},
		ColdStarts: []float64{5},
		Concs:      []float64{1, 2},
		Reps:       2,
		BaseSeed:   1,
	}
}

func TestServerlessGridShape(t *testing.T) {
	res, err := smallServerlessMatrix().Serverless(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	if res.Runs != 4 {
		t.Fatalf("runs = %d, want 4", res.Runs)
	}
	for _, c := range res.Cells {
		// Scale-to-zero happened and was paid for: activations,
		// zero-scales and cold starts are all present, and the canary
		// revision took real traffic with its own cold starts.
		if c.Activations.Mean < 2 || c.ZeroScales.Mean < 1 || c.ColdStarts.Mean <= 0 {
			t.Fatalf("cell %+v: scale-to-zero lifecycle missing", c)
		}
		if c.CanaryRequests.Mean <= 0 || c.CanaryCold.Mean <= 0 {
			t.Fatalf("cell %+v: canary revision never served", c)
		}
		// Cold-start delay is charged against the SLO: attainment sits
		// strictly inside (0, 1).
		if c.Attainment.Mean <= 0 || c.Attainment.Mean >= 1 {
			t.Fatalf("cell %+v: attainment %g, want in (0,1)", c, c.Attainment.Mean)
		}
		if c.Metered.Mean <= 0 || c.Served.Mean <= 0 {
			t.Fatalf("cell %+v: invocation accounting missing", c)
		}
	}
	out := res.Render()
	for _, want := range []string{"gap [s]", "cold starts", "zero scales", "v2 reqs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
