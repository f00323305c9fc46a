package exp

import (
	"fmt"
	"strings"

	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// The services experiment exercises the elastic long-running-service
// framework end to end: a service VC and a batch VC share the private
// pool, services negotiate latency SLOs and scale with diurnal/bursty
// offered load, batch deadline work arrives beside them, and the grid
// sweeps offered load x replica policy x burst amplitude, reporting SLO
// attainment, cost, penalties and the cloud-burst fraction per cell.

// Replica policies for the services experiment.
const (
	// ReplicaPolicyNoop leaves SLO pressure to VC-local elasticity:
	// services grow only onto nodes already attached to their VC.
	ReplicaPolicyNoop = "noop"
	// ReplicaPolicyScaleOut reacts to projected SLO burn by leasing
	// cloud VMs for the VC (the ScaleOutEnforcer).
	ReplicaPolicyScaleOut = "scaleout"
)

// ServiceScenarioConfig parameterizes one service-workload platform run.
type ServiceScenarioConfig struct {
	Seed     int64
	Policy   string  // replica policy: "noop" or "scaleout"
	LoadMult float64 // base-rate multiplier (1 = nominal)
	BurstAmp float64 // burst rate factor (1 = no bursts)
}

// ServiceScenario builds the canonical elastic-services run: four
// long-running services (latency SLOs, diurnal load with superimposed
// bursts) in a service VC beside a light batch stream in a batch VC,
// both on the paper's private pool and cloud.
func ServiceScenario(cfg ServiceScenarioConfig) Scenario {
	if cfg.LoadMult <= 0 {
		cfg.LoadMult = 1
	}
	if cfg.BurstAmp <= 0 {
		cfg.BurstAmp = 1
	}
	if cfg.Policy == "" {
		cfg.Policy = ReplicaPolicyScaleOut
	}
	policy := cfg.Policy
	services := workload.Services(workload.ServiceConfig{
		Apps:         4,
		VC:           "svc1",
		Seed:         cfg.Seed,
		Interarrival: stats.Constant{V: 120},
		Lifetime:     stats.Constant{V: 2400},
		BaseRate:     stats.Constant{V: 30 * cfg.LoadMult},
		SvcRate:      stats.Constant{V: 10},
		Diurnal:      &workload.Diurnal{Period: sim.Seconds(1200), NightFactor: 2},
		BurstEvery:   sim.Seconds(600),
		BurstLen:     sim.Seconds(120),
		BurstFactor:  cfg.BurstAmp,
		Horizon:      sim.Seconds(3600),
	})
	batchStream := workload.Generate(workload.GenConfig{
		Apps: 14, VC: "vc2", Seed: cfg.Seed + 1,
		Interarrival: stats.Exponential{MeanV: 120},
		Work:         stats.Normal{Mu: 1550, Sigma: 200, Min: 60},
		VMs:          stats.Constant{V: 2},
	})
	return Scenario{
		Policy:   core.PolicyMeryn,
		Seed:     cfg.Seed,
		Workload: workload.Merge(services, batchStream),
		Label:    fmt.Sprintf("services %s/load=%g/burst=%g", cfg.Policy, cfg.LoadMult, cfg.BurstAmp),
		Mutate: func(c *core.Config) {
			c.VCs = []core.VCConfig{
				{Name: "svc1", Type: workload.TypeService, InitialVMs: 24},
				{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 16},
			}
			c.MaxPenaltyFrac = 0.5
			if policy == ReplicaPolicyScaleOut {
				c.Enforcer = &core.ScaleOutEnforcer{BoostVMs: 2, MaxBoosts: 64}
			}
		},
	}
}

// ServicesMatrix declares the services sweep grid: offered load x
// replica policy x burst amplitude, replicated Reps times per cell.
type ServicesMatrix struct {
	Name     string
	Loads    []float64 // base-rate multipliers (default 0.7, 1.0, 1.3)
	Policies []string  // replica policies (default noop, scaleout)
	Bursts   []float64 // burst amplitudes (default 1, 2.5)
	Reps     int       // seed replications per cell (default 3)
	BaseSeed int64     // feeds DeriveSeed per run (default 1)
}

// DefaultServicesMatrix is the stock grid behind `-exp services`.
func DefaultServicesMatrix() ServicesMatrix {
	return ServicesMatrix{
		Name:     "services",
		Loads:    []float64{0.7, 1.0, 1.3},
		Policies: []string{ReplicaPolicyNoop, ReplicaPolicyScaleOut},
		Bursts:   []float64{1, 2.5},
		Reps:     3,
	}
}

func (m ServicesMatrix) withDefaults() ServicesMatrix {
	d := DefaultServicesMatrix()
	if m.Name == "" {
		m.Name = d.Name
	}
	if len(m.Loads) == 0 {
		m.Loads = d.Loads
	}
	if len(m.Policies) == 0 {
		m.Policies = d.Policies
	}
	if len(m.Bursts) == 0 {
		m.Bursts = d.Bursts
	}
	if m.Reps <= 0 {
		m.Reps = d.Reps
	}
	if m.BaseSeed == 0 {
		m.BaseSeed = 1
	}
	return m
}

// ServiceCellStats is one aggregated grid cell.
type ServiceCellStats struct {
	Policy string  `json:"policy"`
	Load   float64 `json:"load_mult"`
	Burst  float64 `json:"burst_amp"`
	Reps   int     `json:"reps"`

	Attainment  Metric `json:"slo_attainment"`     // clean-interval fraction over service apps
	Penalty     Metric `json:"penalty_units"`      // SLO-burn penalties refunded
	Cost        Metric `json:"cost_units"`         // provider-side cost, all apps
	CloudFrac   Metric `json:"cloud_frac"`         // cloud VM-seconds / total VM-seconds
	PeakCloud   Metric `json:"peak_cloud_vms"`     //
	PeakRepl    Metric `json:"peak_replicas"`      // widest any service scaled
	BatchMissed Metric `json:"batch_missed"`       // batch deadlines missed alongside
	Reclaims    Metric `json:"replica_reclaims"`   // replicas yielded to winning bids
	ScaleOuts   Metric `json:"replica_scale_outs"` // controller target raises
}

// ServicesResult aggregates the full grid.
type ServicesResult struct{ Grid[ServiceCellStats] }

// Services executes the grid on the worker pool with derived per-run
// seeds and aggregates per-cell statistics.
func (m ServicesMatrix) Services(opt Options) (*ServicesResult, error) {
	m = m.withDefaults()
	if opt.Reps > 0 {
		m.Reps = opt.Reps
	}
	var cells []ServiceCellStats
	for _, p := range m.Policies {
		for _, ld := range m.Loads {
			for _, b := range m.Bursts {
				cells = append(cells, ServiceCellStats{Policy: p, Load: ld, Burst: b})
			}
		}
	}
	g, err := runGrid(opt, m.Name, m.BaseSeed, m.Reps, cells,
		func(c ServiceCellStats) string {
			return fmt.Sprintf("services/%s/load=%g/burst=%g", c.Policy, c.Load, c.Burst)
		},
		func(c ServiceCellStats, _ int, seed int64) Scenario {
			return ServiceScenario(ServiceScenarioConfig{Seed: seed, Policy: c.Policy, LoadMult: c.Load, BurstAmp: c.Burst})
		},
		func(c ServiceCellStats, runs []*core.Results) ServiceCellStats {
			var att, pen, cost, cloudFrac, peakCloud, peakRepl, missed, reclaims, scaleOuts stats.Summary
			for _, run := range runs {
				svcAgg := metrics.AggregateRecords(run.Ledger.ByType(string(workload.TypeService)))
				batchAgg := metrics.AggregateRecords(run.Ledger.ByType(string(workload.TypeBatch)))
				all := metrics.AggregateRecords(run.Ledger.All())
				att.Add(svcAgg.SLOAttainment)
				pen.Add(svcAgg.TotalPenalty)
				cost.Add(all.TotalCost)
				horizon := sim.Seconds(run.CompletionTime)
				cloudS := run.CloudSeries.Integral(horizon)
				privS := run.PrivateSeries.Integral(horizon)
				frac := 0.0
				if cloudS+privS > 0 {
					frac = cloudS / (cloudS + privS)
				}
				cloudFrac.Add(frac)
				peakCloud.Add(run.CloudSeries.Max())
				maxRepl := 0
				for _, rec := range run.Ledger.ByType(string(workload.TypeService)) {
					if rec.PeakReplicas > maxRepl {
						maxRepl = rec.PeakReplicas
					}
				}
				peakRepl.Add(float64(maxRepl))
				missed.Add(float64(batchAgg.DeadlinesMissed))
				reclaims.Add(float64(run.Counters.ReplicaReclaims.Count))
				scaleOuts.Add(float64(run.Counters.ReplicaScaleOuts.Count))
			}
			c.Reps = len(runs)
			c.Attainment = metricOf(&att)
			c.Penalty = metricOf(&pen)
			c.Cost = metricOf(&cost)
			c.CloudFrac = metricOf(&cloudFrac)
			c.PeakCloud = metricOf(&peakCloud)
			c.PeakRepl = metricOf(&peakRepl)
			c.BatchMissed = metricOf(&missed)
			c.Reclaims = metricOf(&reclaims)
			c.ScaleOuts = metricOf(&scaleOuts)
			return c
		})
	if err != nil {
		return nil, fmt.Errorf("exp: services %q: %w", m.Name, err)
	}
	return &ServicesResult{g}, nil
}

// Render implements Renderable.
func (r *ServicesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Services %q: %d cells x %d reps (base seed %d)\n", r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	b.WriteString("elastic latency-SLO services + batch stream; offered load x replica policy x burst amplitude\n\n")
	t := report.Table{Headers: []string{
		"policy", "load", "burst", "slo attain", "penalty [u]", "cost [u]", "cloud frac", "peak repl", "reclaims",
	}}
	for _, c := range r.Cells {
		t.AddRow(c.Policy, fmt.Sprintf("%g", c.Load), fmt.Sprintf("%g", c.Burst),
			pm(c.Attainment, r.Reps, 3), pm(c.Penalty, r.Reps, 0), pm(c.Cost, r.Reps, 0),
			pm(c.CloudFrac, r.Reps, 3), fmt.Sprintf("%.1f", c.PeakRepl.Mean),
			fmt.Sprintf("%.1f", c.Reclaims.Mean))
	}
	_ = t.Render(&b)
	b.WriteString("\nslo attain = clean SLO intervals / evaluated intervals over service apps;\ncloud frac = cloud VM-seconds over total VM-seconds; seeds derived per cell+rep\n")
	return b.String()
}
