package exp

import (
	"encoding/json"
	"fmt"
	"strconv"
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

// serverlessRun is one expanded grid replication.
type serverlessRun struct {
	gap, cold, conc float64
	rep             int
	seed            int64
}

// expand enumerates the grid cell-major with replications adjacent.
func (m ServerlessMatrix) expand() []serverlessRun {
	var runs []serverlessRun
	for _, gap := range m.IdleGaps {
		for _, cold := range m.ColdStarts {
			for _, conc := range m.Concs {
				cell := fmt.Sprintf("gap=%g/cold=%g/conc=%g", gap, cold, conc)
				for rep := 0; rep < m.Reps; rep++ {
					runs = append(runs, serverlessRun{
						gap: gap, cold: cold, conc: conc, rep: rep,
						seed: DeriveSeed(m.BaseSeed, fmt.Sprintf("serverless/%s/rep=%d", cell, rep)),
					})
				}
			}
		}
	}
	return runs
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

// ServerlessResult aggregates the full grid, cells in expansion order
// so rendering and JSON are byte-identical whatever the worker count.
type ServerlessResult struct {
	Name     string                `json:"name"`
	BaseSeed int64                 `json:"base_seed"`
	Reps     int                   `json:"reps"`
	Runs     int                   `json:"runs"`
	Cells    []ServerlessCellStats `json:"cells"`
}

// Serverless executes the grid on the worker pool with derived per-run
// seeds and aggregates per-cell statistics. Every run carries the
// canary rollout, so per-revision traffic is part of the artifact.
func (m ServerlessMatrix) Serverless(opt Options) (*ServerlessResult, error) {
	m = m.withDefaults()
	if opt.Reps > 0 {
		m.Reps = opt.Reps
	}
	runs := m.expand()

	// Revision tallies live on the framework, not in Results; the Setup
	// hook captures each run's platform so the aggregation loop below
	// can read final per-revision counts back after the runs complete
	// (function state persists past job completion). RunScenarios keeps
	// run order, each entry is written exactly once, so no lock.
	plats := make([]*core.Platform, len(runs))
	results, err := RunScenarios(len(runs), opt, func(i int) Scenario {
		r := runs[i]
		s := ServerlessScenario(ServerlessScenarioConfig{
			Seed: r.seed, ColdStartS: r.cold, IdleGapS: r.gap, ConcTarget: r.conc, Canary: true,
		})
		inner := s.Setup
		s.Setup = func(p *core.Platform) {
			if inner != nil {
				inner(p)
			}
			plats[i] = p
		}
		return s
	})
	if err != nil {
		return nil, fmt.Errorf("exp: serverless %q: %w", m.Name, err)
	}
	type revTally struct{ v2Requests, v2Cold float64 }
	tallies := make([]revTally, len(runs))
	for i, p := range plats {
		cm, ok := p.CM("fn1")
		if !ok {
			continue
		}
		fw, _ := cm.Framework().(*serverless.Serverless)
		if fw == nil {
			continue
		}
		for fn := 0; fn < 4; fn++ {
			revs, err := fw.Revisions(fmt.Sprintf("fn1-%03d", fn))
			if err != nil {
				continue
			}
			for _, rv := range revs {
				if rv.Name == "v2" {
					tallies[i].v2Requests += rv.Requests
					tallies[i].v2Cold += float64(rv.ColdStarts)
				}
			}
		}
	}

	res := &ServerlessResult{Name: m.Name, BaseSeed: m.BaseSeed, Reps: m.Reps, Runs: len(runs)}
	for i := 0; i < len(runs); i += m.Reps {
		r := runs[i]
		var att, cold, delay, act, actRate, zero, peak, served, metered, pen, canReq, canCold, missed, capped stats.Summary
		for rep := 0; rep < m.Reps; rep++ {
			run := results[i+rep]
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
			canReq.Add(tallies[i+rep].v2Requests)
			canCold.Add(tallies[i+rep].v2Cold)
			missed.Add(float64(batchAgg.DeadlinesMissed))
			capped.Add(float64(run.Counters.CostCapThrottles.Count))
		}
		res.Cells = append(res.Cells, ServerlessCellStats{
			IdleGap: r.gap, ColdStart: r.cold, Conc: r.conc, Reps: m.Reps,
			Attainment:     metricOf(&att),
			ColdStarts:     metricOf(&cold),
			ColdDelay:      metricOf(&delay),
			Activations:    metricOf(&act),
			ActivationRate: metricOf(&actRate),
			ZeroScales:     metricOf(&zero),
			PeakRepl:       metricOf(&peak),
			Served:         metricOf(&served),
			Metered:        metricOf(&metered),
			Penalty:        metricOf(&pen),
			CanaryRequests: metricOf(&canReq),
			CanaryCold:     metricOf(&canCold),
			BatchMissed:    metricOf(&missed),
			CostCapped:     metricOf(&capped),
		})
	}
	return res, nil
}

// JSON returns the machine-readable form: indented, field order fixed
// by the struct definitions, cell order fixed by grid expansion.
func (r *ServerlessResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render implements Renderable.
func (r *ServerlessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serverless %q: %d cells x %d reps (base seed %d)\n", r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	b.WriteString("scale-to-zero functions + batch stream; idle gap x cold-start cost x concurrency target\n\n")
	t := report.Table{Headers: []string{
		"gap [s]", "cold [s]", "conc", "slo attain", "cold starts", "activ/ks", "zero scales", "peak repl", "metered [u]", "v2 reqs",
	}}
	pm := func(m Metric, digits int) string {
		if r.Reps < 2 {
			return strconv.FormatFloat(m.Mean, 'f', digits, 64)
		}
		return fmt.Sprintf("%.*f ±%.*f", digits, m.Mean, digits, m.CI95)
	}
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%g", c.IdleGap), fmt.Sprintf("%g", c.ColdStart), fmt.Sprintf("%g", c.Conc),
			pm(c.Attainment, 3), pm(c.ColdStarts, 1), pm(c.ActivationRate, 2),
			pm(c.ZeroScales, 1), fmt.Sprintf("%.1f", c.PeakRepl.Mean),
			pm(c.Metered, 0), fmt.Sprintf("%.0f", c.CanaryRequests.Mean))
	}
	_ = t.Render(&b)
	b.WriteString("\nslo attain = clean SLO intervals / evaluated intervals (cold-start delay burns intervals);\nactiv/ks = scale-from-zero episodes per 1000 simulated seconds; v2 reqs = requests the canary revision served\n")
	return b.String()
}
