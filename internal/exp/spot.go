package exp

import (
	"fmt"
	"strings"

	"meryn/internal/cloud"
	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The spot experiment exercises preemptible cloud capacity end to end:
// a small batch VC is hit by synchronized arrival waves that overflow
// the private pool, forcing Algorithm 1 to the cloud, whose market
// prices move with configurable volatility. The grid sweeps bid
// multiplier x volatility x lease policy and reports SLA penalties,
// cloud and spot spend, revocation counts and on-demand fallbacks per
// cell — the cost/risk frontier of bidding on the market instead of
// paying the posted price.

// Lease policies for the spot experiment.
const (
	// SpotPolicyOnDemand leases posted-price capacity only (no
	// revocation risk; the baseline).
	SpotPolicyOnDemand = "ondemand"
	// SpotPolicySpot bids on the market: cheaper in expectation, but
	// leases are revoked when the market crosses the bid and the lost
	// work requeues onto replacement capacity.
	SpotPolicySpot = "spot"
)

// SpotScenarioConfig parameterizes one spot-market platform run.
type SpotScenarioConfig struct {
	Seed    int64
	Policy  string  // lease policy: "ondemand" or "spot"
	BidMult float64 // spot bid as a multiple of the current quote
	Vol     float64 // market volatility (fraction of base price per tick)
}

// SpotScenario builds the canonical preemptible-capacity run: one batch
// VC with a deliberately small private share, arrival waves that burst
// well past it, and a market-priced cloud.
func SpotScenario(cfg SpotScenarioConfig) Scenario {
	if cfg.Policy == "" {
		cfg.Policy = SpotPolicySpot
	}
	if cfg.BidMult <= 0 {
		cfg.BidMult = 1.25
	}
	if cfg.Vol < 0 {
		cfg.Vol = 0
	}
	policy, bidMult, vol := cfg.Policy, cfg.BidMult, cfg.Vol
	waves := workload.Waves(workload.WaveConfig{
		Waves: 3, PerWave: 5, VC: "vc1", Seed: cfg.Seed,
		Gap:  sim.Seconds(900),
		Work: stats.Normal{Mu: 2400, Sigma: 600, Min: 300},
		VMs:  stats.Constant{V: 2},
	})
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     cfg.Seed,
		Workload: waves,
		Label:    fmt.Sprintf("spot %s/bid=%g/vol=%g", policy, bidMult, vol),
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 8}}
			if policy == SpotPolicySpot {
				c.VCs[0].Spot = &core.SpotPolicy{BidMultiplier: bidMult}
			}
			if vol > 0 {
				c.Clouds[0].Market = &cloud.MarketConfig{
					Volatility: vol, Reversion: 0.25, Floor: 0.5, Tick: sim.Seconds(30),
				}
			}
		},
	}
}

// SpotMatrix declares the spot sweep grid: lease policy x market
// volatility x bid multiplier, replicated Reps times per cell. The
// on-demand baseline ignores the bid dimension (one cell per
// volatility).
type SpotMatrix struct {
	Name     string
	Policies []string  // lease policies (default ondemand, spot)
	Vols     []float64 // market volatilities (default 0.05, 0.2)
	BidMults []float64 // spot bid multipliers (default 1.1, 1.6)
	Reps     int       // seed replications per cell (default 3)
	BaseSeed int64     // feeds DeriveSeed per run (default 1)
}

// DefaultSpotMatrix is the stock grid behind `-exp spot`.
func DefaultSpotMatrix() SpotMatrix {
	return SpotMatrix{
		Name:     "spot",
		Policies: []string{SpotPolicyOnDemand, SpotPolicySpot},
		Vols:     []float64{0.05, 0.2},
		BidMults: []float64{1.1, 1.6},
		Reps:     3,
	}
}

func (m SpotMatrix) withDefaults() SpotMatrix {
	d := DefaultSpotMatrix()
	if m.Name == "" {
		m.Name = d.Name
	}
	if len(m.Policies) == 0 {
		m.Policies = d.Policies
	}
	if len(m.Vols) == 0 {
		m.Vols = d.Vols
	}
	if len(m.BidMults) == 0 {
		m.BidMults = d.BidMults
	}
	if m.Reps <= 0 {
		m.Reps = d.Reps
	}
	if m.BaseSeed == 0 {
		m.BaseSeed = 1
	}
	return m
}

// SpotCellStats is one aggregated grid cell.
type SpotCellStats struct {
	Policy  string  `json:"policy"`
	Vol     float64 `json:"volatility"`
	BidMult float64 `json:"bid_mult,omitempty"`
	Reps    int     `json:"reps"`

	Penalty     Metric `json:"penalty_units"`    // SLA penalties refunded
	CloudSpend  Metric `json:"cloud_spend"`      // provider-side charges
	SpotSpend   Metric `json:"spot_spend"`       // preemptible share of the spend
	Revocations Metric `json:"revocations"`      // attached leases preempted
	Fallbacks   Metric `json:"spot_fallbacks"`   // decisions forced to on-demand
	Missed      Metric `json:"deadlines_missed"` // SLA deadlines blown
	Completion  Metric `json:"completion_s"`     // last application end
}

// SpotResult aggregates the full grid.
type SpotResult struct{ Grid[SpotCellStats] }

// Spot executes the grid on the worker pool with derived per-run seeds
// and aggregates per-cell statistics. The on-demand baseline has no bid
// dimension: one cell per volatility, bid 0.
func (m SpotMatrix) Spot(opt Options) (*SpotResult, error) {
	m = m.withDefaults()
	if opt.Reps > 0 {
		m.Reps = opt.Reps
	}
	var cells []SpotCellStats
	for _, p := range m.Policies {
		bids := m.BidMults
		if p != SpotPolicySpot {
			bids = []float64{0}
		}
		for _, v := range m.Vols {
			for _, b := range bids {
				cells = append(cells, SpotCellStats{Policy: p, Vol: v, BidMult: b})
			}
		}
	}
	g, err := runGrid(opt, m.Name, m.BaseSeed, m.Reps, cells,
		func(c SpotCellStats) string {
			return fmt.Sprintf("spot/%s/vol=%g/bid=%g", c.Policy, c.Vol, c.BidMult)
		},
		func(c SpotCellStats, _ int, seed int64) Scenario {
			return SpotScenario(SpotScenarioConfig{Seed: seed, Policy: c.Policy, BidMult: c.BidMult, Vol: c.Vol})
		},
		func(c SpotCellStats, runs []*core.Results) SpotCellStats {
			var pen, spend, spot, revs, falls, missed, completion stats.Summary
			for _, run := range runs {
				agg := metrics.AggregateRecords(run.Ledger.All())
				pen.Add(agg.TotalPenalty)
				spend.Add(run.CloudSpend)
				spot.Add(run.SpotSpend)
				revs.Add(float64(run.Counters.SpotRevocations.Count))
				falls.Add(float64(run.Counters.SpotFallbacks.Count))
				missed.Add(float64(agg.DeadlinesMissed))
				completion.Add(run.CompletionTime)
			}
			c.Reps = len(runs)
			c.Penalty = metricOf(&pen)
			c.CloudSpend = metricOf(&spend)
			c.SpotSpend = metricOf(&spot)
			c.Revocations = metricOf(&revs)
			c.Fallbacks = metricOf(&falls)
			c.Missed = metricOf(&missed)
			c.Completion = metricOf(&completion)
			return c
		})
	if err != nil {
		return nil, fmt.Errorf("exp: spot %q: %w", m.Name, err)
	}
	return &SpotResult{g}, nil
}

// Render implements Renderable.
func (r *SpotResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Spot %q: %d cells x %d reps (base seed %d)\n", r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	b.WriteString("preemptible cloud capacity; lease policy x market volatility x bid multiplier\n\n")
	t := report.Table{Headers: []string{
		"policy", "vol", "bid", "penalty [u]", "spend [u]", "spot [u]", "revocations", "fallbacks", "missed",
	}}
	for _, c := range r.Cells {
		bid := "-"
		if c.BidMult > 0 {
			bid = fmt.Sprintf("%g", c.BidMult)
		}
		t.AddRow(c.Policy, fmt.Sprintf("%g", c.Vol), bid,
			pm(c.Penalty, r.Reps, 0), pm(c.CloudSpend, r.Reps, 0), pm(c.SpotSpend, r.Reps, 0),
			fmt.Sprintf("%.1f", c.Revocations.Mean),
			fmt.Sprintf("%.1f", c.Fallbacks.Mean),
			fmt.Sprintf("%.1f", c.Missed.Mean))
	}
	_ = t.Render(&b)
	b.WriteString("\nrevocations = attached spot leases preempted when the market crossed their bid;\nfallbacks = lease decisions forced from spot to on-demand; seeds derived per cell+rep\n")
	return b.String()
}
