package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"meryn/internal/chaos"
	"meryn/internal/core"
)

// smallChaosMatrix is the CI-sized grid: off vs heavy, spot policy
// only, two reps.
func smallChaosMatrix() ChaosMatrix {
	return ChaosMatrix{
		Name:        "chaos-smoke",
		Intensities: []string{ChaosOff, ChaosHeavy},
		Policies:    []string{SpotPolicySpot},
		Reps:        2,
		BaseSeed:    1,
	}
}

// TestChaosJSONWorkerInvariance: campaigns and audits draw only from
// their own named RNG streams, so the grid JSON is byte-identical
// whatever the worker count.
func TestChaosJSONWorkerInvariance(t *testing.T) {
	m := smallChaosMatrix()
	r1, err := m.Chaos(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := m.Chaos(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j4, err := r4.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("chaos grid JSON differs across worker counts")
	}
}

// TestChaosGridShape: the grid expands intensity-major, every run is
// audited, and the heavy campaign actually degrades the platform
// relative to the fault-free baseline.
func TestChaosGridShape(t *testing.T) {
	res, err := smallChaosMatrix().Chaos(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.Runs != 4 {
		t.Fatalf("cells = %d runs = %d, want 2/4", len(res.Cells), res.Runs)
	}
	off, heavy := res.Cells[0], res.Cells[1]
	if off.Intensity != ChaosOff || heavy.Intensity != ChaosHeavy {
		t.Fatalf("cell order: %s/%s", off.Intensity, heavy.Intensity)
	}
	if off.Crashes.Mean != 0 {
		t.Fatalf("fault-free baseline crashed %g VMs", off.Crashes.Mean)
	}
	if heavy.Crashes.Mean == 0 {
		t.Fatal("heavy campaign crashed nothing")
	}
	// Every cell ran under the 10 s audit cadence.
	if off.AuditChecks.Mean == 0 || heavy.AuditChecks.Mean == 0 {
		t.Fatalf("audit checks: off=%g heavy=%g", off.AuditChecks.Mean, heavy.AuditChecks.Mean)
	}
	if !strings.Contains(res.Render(), "revocations") {
		t.Fatal("render malformed")
	}
}

// TestChaosScenarioObserve: the Observe hook surfaces the armed
// injector with live tallies (and nil for the fault-free baseline),
// and every application settles even under the heavy campaign.
func TestChaosScenarioObserve(t *testing.T) {
	var inj *chaos.Injector
	res, err := ChaosScenario(ChaosScenarioConfig{
		Seed: 2, Intensity: ChaosHeavy,
		Observe: func(i *chaos.Injector) { inj = i },
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil {
		t.Fatal("Observe never received the injector")
	}
	if inj.Crashes == 0 {
		t.Fatal("heavy campaign fired no crashes")
	}
	for _, rec := range res.Ledger.All() {
		if rec.EndTime == 0 {
			t.Fatalf("app %s never settled under the campaign", rec.ID)
		}
	}

	called := false
	ChaosScenario(ChaosScenarioConfig{
		Seed: 2, Intensity: ChaosOff,
		Observe: func(i *chaos.Injector) {
			called = true
			if i != nil {
				t.Fatal("fault-free baseline still built an injector")
			}
		},
	}).Setup(mustPlatform(t))
	if !called {
		t.Fatal("Observe not called for the baseline")
	}
}

// mustPlatform builds a default platform for Setup-hook tests.
func mustPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHeavyChaosRestoresPrivateVMs is the lost-replacement regression.
// In this heavy on-demand campaign replacement private VMs crash during
// their configure delay; the platform used to count them as replaced
// and never ask again, so vc1 ended at zero nodes with applications
// queued, and Drain spun on periodic ticks forever. The test steps the
// session to a fixed horizon instead of draining (a regression must
// fail, not hang) and requires every application settled and vc1 back
// at its eight private VMs.
func TestHeavyChaosRestoresPrivateVMs(t *testing.T) {
	sc := ChaosScenario(ChaosScenarioConfig{
		Seed: 7950849312380375297, Policy: SpotPolicyOnDemand, Intensity: ChaosHeavy,
	})
	cfg := core.DefaultConfig()
	cfg.Policy, cfg.Seed = sc.Policy, sc.Seed
	sc.Mutate(&cfg)
	p, err := core.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.Setup(p)
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range sc.Workload {
		if _, err := s.SubmitWith(app, nil); err != nil {
			t.Fatalf("submit %s: %v", app.ID, err)
		}
	}
	s.Step(6 * time.Hour)
	if m := s.Metrics(); m.Settled != len(sc.Workload) {
		t.Errorf("%d of %d applications settled by 6 h", m.Settled, len(sc.Workload))
	}
	if vc := s.VCs()[0]; vc.Nodes != 8 || vc.OwnedPrivate != 8 {
		t.Errorf("vc1 ends with %d nodes (%d private, avail %d), want its 8 private VMs",
			vc.Nodes, vc.OwnedPrivate, vc.Avail)
	}
	if err := p.AuditNow(); err != nil {
		t.Fatal(err)
	}
}
