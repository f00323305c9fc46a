package exp

import (
	"strings"
	"testing"
)

func TestServicesExperimentRegistered(t *testing.T) {
	e, ok := Find("services")
	if !ok {
		t.Fatal("services experiment not registered")
	}
	if !strings.Contains(e.Artifact, "latency-SLO") {
		t.Fatalf("artifact = %q", e.Artifact)
	}
}

// TestServicesGridShape checks the grid expands cell-major, and the
// scaleout policy earns its keep under bursty load (attainment at least
// matches noop).
func TestServicesGridShape(t *testing.T) {
	m := ServicesMatrix{
		Loads:    []float64{1},
		Policies: []string{ReplicaPolicyNoop, ReplicaPolicyScaleOut},
		Bursts:   []float64{2.5},
		Reps:     2,
		BaseSeed: 1,
	}
	res, err := m.Services(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	noop, scaleout := res.Cells[0], res.Cells[1]
	if noop.Policy != ReplicaPolicyNoop || scaleout.Policy != ReplicaPolicyScaleOut {
		t.Fatalf("cell order = %s,%s, want noop,scaleout", noop.Policy, scaleout.Policy)
	}
	for _, c := range res.Cells {
		if c.Attainment.Mean <= 0 || c.Attainment.Mean > 1 {
			t.Fatalf("%s attainment = %g, want (0,1]", c.Policy, c.Attainment.Mean)
		}
		if c.Cost.Mean <= 0 {
			t.Fatalf("%s cost = %g, want > 0", c.Policy, c.Cost.Mean)
		}
	}
	if scaleout.Attainment.Mean < noop.Attainment.Mean {
		t.Fatalf("scaleout attainment %.3f below noop %.3f under bursty load",
			scaleout.Attainment.Mean, noop.Attainment.Mean)
	}
	if scaleout.CloudFrac.Mean == 0 {
		t.Fatal("scaleout policy never burst to the cloud")
	}
	if got := res.Render(); !strings.Contains(got, "slo attain") {
		t.Fatalf("render missing headers:\n%s", got)
	}
}
