package exp

import (
	"fmt"
	"strings"

	"meryn/internal/chaos"
	"meryn/internal/cloud"
	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The chaos experiment runs fault campaigns against the spot-style
// bursting scenario with the invariant auditor armed at a tight
// cadence: correlated site outages, crash bursts, provider-wide spot
// revocation storms and market price shocks, over a campaign-intensity
// x lease-policy grid. Every run that completes has passed the whole
// invariant catalogue at every audit barrier (violations panic), so
// the reported numbers measure degradation — penalties, missed
// deadlines, crash and revocation counts — of a platform that provably
// stayed coherent throughout.

// Chaos campaign intensities.
const (
	ChaosOff   = "off"   // no faults: the baseline the campaigns degrade from
	ChaosLight = "light" // chaos.Light: sparse crashes, one storm, mild shock
	ChaosHeavy = "heavy" // chaos.Heavy: repeated bursts, outages, full sweeps
)

// ChaosScenarioConfig parameterizes one chaos platform run.
type ChaosScenarioConfig struct {
	Seed      int64
	Policy    string // lease policy: "ondemand" or "spot"
	Intensity string // campaign intensity: "off", "light" or "heavy"

	// Observe, when non-nil, receives the armed injector (nil for
	// intensity "off") before the run starts — the meryn-sim demo uses
	// it to report fired-fault tallies afterwards.
	Observe func(*chaos.Injector)
}

// ChaosScenario builds the canonical chaos run: the spot experiment's
// bursting scenario (small private share, arrival waves, market-priced
// cloud) with a fault campaign armed on the engine and the auditor
// checking every 10 simulated seconds.
func ChaosScenario(cfg ChaosScenarioConfig) Scenario {
	if cfg.Policy == "" {
		cfg.Policy = SpotPolicySpot
	}
	if cfg.Intensity == "" {
		cfg.Intensity = ChaosHeavy
	}
	policy, intensity, observe := cfg.Policy, cfg.Intensity, cfg.Observe
	waves := workload.Waves(workload.WaveConfig{
		Waves: 3, PerWave: 5, VC: "vc1", Seed: cfg.Seed,
		Gap:  sim.Seconds(900),
		Work: stats.Normal{Mu: 2400, Sigma: 600, Min: 300},
		VMs:  stats.Constant{V: 2},
	})
	seed := cfg.Seed
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     seed,
		Workload: waves,
		Label:    fmt.Sprintf("chaos %s/%s", intensity, policy),
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 8}}
			if policy == SpotPolicySpot {
				c.VCs[0].Spot = &core.SpotPolicy{BidMultiplier: 1.25}
			}
			c.Clouds[0].Market = &cloud.MarketConfig{
				Volatility: 0.15, Reversion: 0.25, Floor: 0.5, Tick: sim.Seconds(30),
			}
			// Tight audit cadence: a campaign event is never more than
			// 10 simulated seconds from a full invariant check.
			c.Audit = &core.AuditConfig{Every: sim.Seconds(10)}
		},
		Setup: func(p *core.Platform) {
			var inj *chaos.Injector
			if intensity != ChaosOff {
				plan := chaos.Light(seed)
				if intensity == ChaosHeavy {
					plan = chaos.Heavy(seed)
				}
				inj = chaos.New(p, plan)
				inj.Arm()
			}
			if observe != nil {
				observe(inj)
			}
		},
	}
}

// ChaosMatrix declares the chaos grid: campaign intensity x lease
// policy, replicated Reps times per cell.
type ChaosMatrix struct {
	Name        string
	Intensities []string // campaign intensities (default off, light, heavy)
	Policies    []string // lease policies (default ondemand, spot)
	Reps        int      // seed replications per cell (default 3)
	BaseSeed    int64    // feeds DeriveSeed per run (default 1)
}

// DefaultChaosMatrix is the stock grid behind `-exp chaos`.
func DefaultChaosMatrix() ChaosMatrix {
	return ChaosMatrix{
		Name:        "chaos",
		Intensities: []string{ChaosOff, ChaosLight, ChaosHeavy},
		Policies:    []string{SpotPolicyOnDemand, SpotPolicySpot},
		Reps:        3,
	}
}

func (m ChaosMatrix) withDefaults() ChaosMatrix {
	d := DefaultChaosMatrix()
	if m.Name == "" {
		m.Name = d.Name
	}
	if len(m.Intensities) == 0 {
		m.Intensities = d.Intensities
	}
	if len(m.Policies) == 0 {
		m.Policies = d.Policies
	}
	if m.Reps <= 0 {
		m.Reps = d.Reps
	}
	if m.BaseSeed == 0 {
		m.BaseSeed = 1
	}
	return m
}

// ChaosCellStats is one aggregated grid cell.
type ChaosCellStats struct {
	Intensity string `json:"intensity"`
	Policy    string `json:"policy"`
	Reps      int    `json:"reps"`

	Penalty     Metric `json:"penalty_units"`    // SLA penalties refunded
	Missed      Metric `json:"deadlines_missed"` // SLA deadlines blown
	Completion  Metric `json:"completion_s"`     // last application end
	CloudSpend  Metric `json:"cloud_spend"`      // provider-side charges
	Crashes     Metric `json:"node_crashes"`     // VM crashes absorbed by CMs
	Revocations Metric `json:"revocations"`      // attached spot leases preempted
	AuditChecks Metric `json:"audit_checks"`     // invariant audits passed per run
}

// ChaosResult aggregates the full grid.
type ChaosResult struct{ Grid[ChaosCellStats] }

// Chaos executes the grid on the worker pool with derived per-run
// seeds and aggregates per-cell statistics. Any invariant violation
// during any campaign panics the run — a completed grid is itself the
// audit pass.
func (m ChaosMatrix) Chaos(opt Options) (*ChaosResult, error) {
	m = m.withDefaults()
	if opt.Reps > 0 {
		m.Reps = opt.Reps
	}
	var cells []ChaosCellStats
	for _, in := range m.Intensities {
		for _, p := range m.Policies {
			cells = append(cells, ChaosCellStats{Intensity: in, Policy: p})
		}
	}
	g, err := runGrid(opt, m.Name, m.BaseSeed, m.Reps, cells,
		func(c ChaosCellStats) string { return fmt.Sprintf("chaos/%s/%s", c.Intensity, c.Policy) },
		func(c ChaosCellStats, _ int, seed int64) Scenario {
			return ChaosScenario(ChaosScenarioConfig{Seed: seed, Policy: c.Policy, Intensity: c.Intensity})
		},
		func(c ChaosCellStats, runs []*core.Results) ChaosCellStats {
			var pen, missed, completion, spend, crashes, revs, audits stats.Summary
			for _, run := range runs {
				agg := metrics.AggregateRecords(run.Ledger.All())
				pen.Add(agg.TotalPenalty)
				missed.Add(float64(agg.DeadlinesMissed))
				completion.Add(run.CompletionTime)
				spend.Add(run.CloudSpend)
				crashes.Add(float64(run.Counters.NodeCrashes.Count))
				revs.Add(float64(run.Counters.SpotRevocations.Count))
				audits.Add(float64(run.AuditChecks))
			}
			c.Reps = len(runs)
			c.Penalty = metricOf(&pen)
			c.Missed = metricOf(&missed)
			c.Completion = metricOf(&completion)
			c.CloudSpend = metricOf(&spend)
			c.Crashes = metricOf(&crashes)
			c.Revocations = metricOf(&revs)
			c.AuditChecks = metricOf(&audits)
			return c
		})
	if err != nil {
		return nil, fmt.Errorf("exp: chaos %q: %w", m.Name, err)
	}
	return &ChaosResult{g}, nil
}

// Render implements Renderable.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos %q: %d cells x %d reps (base seed %d)\n", r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	b.WriteString("fault campaigns under the always-on invariant auditor; intensity x lease policy\n\n")
	t := report.Table{Headers: []string{
		"intensity", "policy", "penalty [u]", "missed", "completion [s]", "spend [u]", "crashes", "revocations", "audits",
	}}
	for _, c := range r.Cells {
		t.AddRow(c.Intensity, c.Policy,
			pm(c.Penalty, r.Reps, 0),
			fmt.Sprintf("%.1f", c.Missed.Mean),
			pm(c.Completion, r.Reps, 0),
			pm(c.CloudSpend, r.Reps, 0),
			fmt.Sprintf("%.1f", c.Crashes.Mean),
			fmt.Sprintf("%.1f", c.Revocations.Mean),
			fmt.Sprintf("%.0f", c.AuditChecks.Mean))
	}
	_ = t.Render(&b)
	b.WriteString("\nevery run passed the full invariant catalogue at every audit barrier (violations panic);\ncrashes = VM crashes absorbed; revocations = attached spot leases preempted; seeds derived per cell+rep\n")
	return b.String()
}
