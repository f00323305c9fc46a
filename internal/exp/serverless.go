package exp

import (
	"fmt"
	"strings"

	"meryn/internal/core"
	"meryn/internal/framework/serverless"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The serverless experiment exercises the scale-to-zero function
// framework end to end: request-driven functions with on/off load
// (idle gaps long enough to reach zero replicas), cold-start boot
// delays charged against the p95 SLO, concurrency-driven autoscaling,
// and a mid-run canary rollout (deploy a second revision, split 90/10,
// then promote). The grid sweeps idle gap x cold-start cost x
// concurrency target and reports SLO attainment, cold-start and
// activation tallies, scale-to-zero coverage and invocation revenue.

// ServerlessScenarioConfig parameterizes one serverless platform run.
type ServerlessScenarioConfig struct {
	Seed       int64
	ColdStartS float64 // instance boot delay [s] (default 5)
	IdleGapS   float64 // silent gap between active phases [s] (default 240)
	ConcTarget float64 // in-flight requests per instance (default 2)
	Canary     bool    // deploy v2 mid-run, split 90/10, then promote
}

// ServerlessScenario builds the canonical scale-to-zero run: four
// functions with idle-gap traffic and shared bursts in a serverless VC
// beside a light batch stream, on the paper's private pool and cloud.
// With Canary set, every function deploys a "v2" revision at t=900 s,
// splits traffic 90/10 (rev-1/v2) at t=960 s and promotes v2 to 100% at t=1800 s —
// driven through the framework directly, the same calls the control
// plane's journaled deploy-revision/set-traffic routes make.
func ServerlessScenario(cfg ServerlessScenarioConfig) Scenario {
	if cfg.ColdStartS <= 0 {
		cfg.ColdStartS = 5
	}
	if cfg.IdleGapS < 0 {
		cfg.IdleGapS = 0
	}
	if cfg.ConcTarget <= 0 {
		cfg.ConcTarget = 2
	}
	const apps = 4
	fns := workload.Functions(workload.FunctionConfig{
		Apps:         apps,
		VC:           "fn1",
		Seed:         cfg.Seed,
		Interarrival: stats.Constant{V: 60},
		Lifetime:     stats.Constant{V: 2400},
		BaseRate:     stats.Constant{V: 24},
		SvcRate:      stats.Constant{V: 10},
		ColdStart:    stats.Constant{V: cfg.ColdStartS},
		ConcTarget:   cfg.ConcTarget,
		IdleWindow:   stats.Constant{V: 60},
		ActiveS:      stats.Constant{V: 240},
		IdleGapS:     stats.Constant{V: cfg.IdleGapS},
		BurstEvery:   sim.Seconds(900),
		BurstLen:     sim.Seconds(120),
		BurstFactor:  2.5,
		Horizon:      sim.Seconds(3600),
	})
	batchStream := workload.Generate(workload.GenConfig{
		Apps: 10, VC: "vc2", Seed: cfg.Seed + 1,
		Interarrival: stats.Exponential{MeanV: 150},
		Work:         stats.Normal{Mu: 1550, Sigma: 200, Min: 60},
		VMs:          stats.Constant{V: 2},
	})
	canary := cfg.Canary
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     cfg.Seed,
		Workload: workload.Merge(fns, batchStream),
		Label:    fmt.Sprintf("serverless gap=%g/cold=%g/conc=%g", cfg.IdleGapS, cfg.ColdStartS, cfg.ConcTarget),
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{
				{Name: "fn1", Type: workload.TypeServerless, InitialVMs: 24},
				{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 16},
			}
			c.MaxPenaltyFrac = 0.5
			c.Enforcer = &core.ScaleOutEnforcer{BoostVMs: 2, MaxBoosts: 64}
		},
		Setup: func(p *core.Platform) {
			if !canary {
				return
			}
			fw := func() *serverless.Serverless {
				cm, ok := p.CM("fn1")
				if !ok {
					return nil
				}
				s, _ := cm.Framework().(*serverless.Serverless)
				return s
			}
			forEach := func(f func(s *serverless.Serverless, id string)) {
				s := fw()
				if s == nil {
					return
				}
				for i := 0; i < apps; i++ {
					f(s, fmt.Sprintf("fn1-%03d", i))
				}
			}
			// Errors are ignored on purpose: a function that was rejected
			// in negotiation (or already finished) simply sits the canary
			// out, exactly as a failed API call would.
			p.Eng.At(sim.Seconds(900), func() {
				forEach(func(s *serverless.Serverless, id string) { _ = s.DeployRevision(id, "v2") })
			})
			p.Eng.At(sim.Seconds(960), func() {
				forEach(func(s *serverless.Serverless, id string) {
					_ = s.SetTrafficSplit(id, map[string]int{"rev-1": 90, "v2": 10})
				})
			})
			p.Eng.At(sim.Seconds(1800), func() {
				forEach(func(s *serverless.Serverless, id string) {
					_ = s.SetTrafficSplit(id, map[string]int{"v2": 100})
				})
			})
		},
	}
}

// ServerlessMatrix declares the serverless sweep grid: idle gap x
// cold-start cost x concurrency target, replicated Reps times per cell.
type ServerlessMatrix struct {
	Name       string
	IdleGaps   []float64 // silent-gap lengths [s] (default 120, 360)
	ColdStarts []float64 // boot delays [s] (default 2, 10)
	Concs      []float64 // concurrency targets (default 1, 2)
	Reps       int       // seed replications per cell (default 3)
	BaseSeed   int64     // feeds DeriveSeed per run (default 1)
}

// DefaultServerlessMatrix is the stock grid behind `-exp serverless`.
func DefaultServerlessMatrix() ServerlessMatrix {
	return ServerlessMatrix{
		Name:       "serverless",
		IdleGaps:   []float64{120, 360},
		ColdStarts: []float64{2, 10},
		Concs:      []float64{1, 2},
		Reps:       3,
	}
}

func (m ServerlessMatrix) withDefaults() ServerlessMatrix {
	d := DefaultServerlessMatrix()
	if m.Name == "" {
		m.Name = d.Name
	}
	if len(m.IdleGaps) == 0 {
		m.IdleGaps = d.IdleGaps
	}
	if len(m.ColdStarts) == 0 {
		m.ColdStarts = d.ColdStarts
	}
	if len(m.Concs) == 0 {
		m.Concs = d.Concs
	}
	if m.Reps <= 0 {
		m.Reps = d.Reps
	}
	if m.BaseSeed == 0 {
		m.BaseSeed = 1
	}
	return m
}

// ServerlessCellStats is one aggregated grid cell.
type ServerlessCellStats struct {
	IdleGap   float64 `json:"idle_gap_s"`
	ColdStart float64 `json:"cold_start_s"`
	Conc      float64 `json:"conc_target"`
	Reps      int     `json:"reps"`

	Attainment     Metric `json:"slo_attainment"`     // clean-interval fraction; cold starts burn intervals
	ColdStarts     Metric `json:"cold_starts"`        // instances booted from cold, per run
	ColdDelay      Metric `json:"cold_start_delay_s"` // mean boot delay charged per cold start [s]
	Activations    Metric `json:"activations"`        // scale-from-zero episodes, per run
	ActivationRate Metric `json:"activations_per_ks"` // activations per 1000 simulated seconds
	ZeroScales     Metric `json:"zero_scales"`        // idle windows that reached zero replicas
	PeakRepl       Metric `json:"peak_replicas"`      // widest any function scaled
	Served         Metric `json:"served_requests"`    // requests served across functions
	Metered        Metric `json:"metered_units"`      // pay-per-invocation revenue (cap-bounded)
	Penalty        Metric `json:"penalty_units"`      // SLO-burn penalties refunded
	CanaryRequests Metric `json:"canary_requests_v2"` // requests the v2 revision served
	CanaryCold     Metric `json:"canary_cold_starts"` // cold starts charged to v2 (re-warm flips)
	BatchMissed    Metric `json:"batch_missed"`       // batch deadlines missed alongside
	CostCapped     Metric `json:"cost_cap_throttles"` // functions throttled at their cost cap
}

// ServerlessResult aggregates the full grid.
type ServerlessResult struct{ Grid[ServerlessCellStats] }

// serverlessCell is one grid cell with the platform of each replication,
// recorded by the scenario's Setup hook: revision tallies live on the
// framework, not in Results, and function state persists past job
// completion. Each replication writes its own entry, so no lock.
type serverlessCell struct {
	ServerlessCellStats
	plats []*core.Platform
}

// Serverless executes the grid on the worker pool with derived per-run
// seeds and aggregates per-cell statistics. Every run carries the
// canary rollout, so per-revision traffic is part of the artifact.
func (m ServerlessMatrix) Serverless(opt Options) (*ServerlessResult, error) {
	m = m.withDefaults()
	if opt.Reps > 0 {
		m.Reps = opt.Reps
	}
	var cells []serverlessCell
	for _, gap := range m.IdleGaps {
		for _, cold := range m.ColdStarts {
			for _, conc := range m.Concs {
				cells = append(cells, serverlessCell{
					ServerlessCellStats{IdleGap: gap, ColdStart: cold, Conc: conc},
					make([]*core.Platform, m.Reps),
				})
			}
		}
	}
	g, err := runGrid(opt, m.Name, m.BaseSeed, m.Reps, cells,
		func(c serverlessCell) string {
			return fmt.Sprintf("serverless/gap=%g/cold=%g/conc=%g", c.IdleGap, c.ColdStart, c.Conc)
		},
		func(c serverlessCell, rep int, seed int64) Scenario {
			s := ServerlessScenario(ServerlessScenarioConfig{
				Seed: seed, ColdStartS: c.ColdStart, IdleGapS: c.IdleGap, ConcTarget: c.Conc, Canary: true,
			})
			inner := s.Setup
			s.Setup = func(p *core.Platform) {
				if inner != nil {
					inner(p)
				}
				c.plats[rep] = p
			}
			return s
		},
		func(c serverlessCell, runs []*core.Results) ServerlessCellStats {
			var att, cold, delay, act, actRate, zero, peak, served, metered, pen, canReq, canCold, missed, capped stats.Summary
			for rep, run := range runs {
				fnAgg := metrics.AggregateRecords(run.Ledger.ByType(string(workload.TypeServerless)))
				batchAgg := metrics.AggregateRecords(run.Ledger.ByType(string(workload.TypeBatch)))
				att.Add(fnAgg.SLOAttainment)
				cold.Add(float64(fnAgg.ColdStarts))
				perCold := 0.0
				if fnAgg.ColdStarts > 0 {
					perCold = fnAgg.ColdStartDelayS / float64(fnAgg.ColdStarts)
				}
				delay.Add(perCold)
				act.Add(float64(fnAgg.Activations))
				if run.CompletionTime > 0 {
					actRate.Add(float64(fnAgg.Activations) / run.CompletionTime * 1000)
				} else {
					actRate.Add(0)
				}
				zero.Add(float64(fnAgg.ZeroScales))
				maxRepl := 0
				for _, rec := range run.Ledger.ByType(string(workload.TypeServerless)) {
					if rec.PeakReplicas > maxRepl {
						maxRepl = rec.PeakReplicas
					}
				}
				peak.Add(float64(maxRepl))
				served.Add(fnAgg.Served)
				metered.Add(fnAgg.Metered)
				pen.Add(fnAgg.TotalPenalty)
				v2Requests, v2Cold := canaryTally(c.plats[rep])
				canReq.Add(v2Requests)
				canCold.Add(v2Cold)
				missed.Add(float64(batchAgg.DeadlinesMissed))
				capped.Add(float64(run.Counters.CostCapThrottles.Count))
			}
			out := c.ServerlessCellStats
			out.Reps = len(runs)
			out.Attainment = metricOf(&att)
			out.ColdStarts = metricOf(&cold)
			out.ColdDelay = metricOf(&delay)
			out.Activations = metricOf(&act)
			out.ActivationRate = metricOf(&actRate)
			out.ZeroScales = metricOf(&zero)
			out.PeakRepl = metricOf(&peak)
			out.Served = metricOf(&served)
			out.Metered = metricOf(&metered)
			out.Penalty = metricOf(&pen)
			out.CanaryRequests = metricOf(&canReq)
			out.CanaryCold = metricOf(&canCold)
			out.BatchMissed = metricOf(&missed)
			out.CostCapped = metricOf(&capped)
			return out
		})
	if err != nil {
		return nil, fmt.Errorf("exp: serverless %q: %w", m.Name, err)
	}
	return &ServerlessResult{g}, nil
}

// canaryTally sums the requests and cold starts of the v2 revision over
// the fn1 functions of one finished canary run.
func canaryTally(p *core.Platform) (requests, cold float64) {
	cm, ok := p.CM("fn1")
	if !ok {
		return 0, 0
	}
	fw, _ := cm.Framework().(*serverless.Serverless)
	if fw == nil {
		return 0, 0
	}
	for fn := 0; fn < 4; fn++ {
		revs, err := fw.Revisions(fmt.Sprintf("fn1-%03d", fn))
		if err != nil {
			continue
		}
		for _, rv := range revs {
			if rv.Name == "v2" {
				requests += rv.Requests
				cold += float64(rv.ColdStarts)
			}
		}
	}
	return requests, cold
}

// Render implements Renderable.
func (r *ServerlessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serverless %q: %d cells x %d reps (base seed %d)\n", r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	b.WriteString("scale-to-zero functions + batch stream; idle gap x cold-start cost x concurrency target\n\n")
	t := report.Table{Headers: []string{
		"gap [s]", "cold [s]", "conc", "slo attain", "cold starts", "activ/ks", "zero scales", "peak repl", "metered [u]", "v2 reqs",
	}}
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%g", c.IdleGap), fmt.Sprintf("%g", c.ColdStart), fmt.Sprintf("%g", c.Conc),
			pm(c.Attainment, r.Reps, 3), pm(c.ColdStarts, r.Reps, 1), pm(c.ActivationRate, r.Reps, 2),
			pm(c.ZeroScales, r.Reps, 1), fmt.Sprintf("%.1f", c.PeakRepl.Mean),
			pm(c.Metered, r.Reps, 0), fmt.Sprintf("%.0f", c.CanaryRequests.Mean))
	}
	_ = t.Render(&b)
	b.WriteString("\nslo attain = clean SLO intervals / evaluated intervals (cold-start delay burns intervals);\nactiv/ks = scale-from-zero episodes per 1000 simulated seconds; v2 reqs = requests the canary revision served\n")
	return b.String()
}
