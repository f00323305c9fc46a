// Package exp defines the reproduction experiments: one per table and
// figure in the paper's evaluation (Table 1, Figures 5a/5b, 6a/6b) plus
// the ablations listed in DESIGN.md, and the parallel sweep harness
// (Pool in sweep.go, Grid/runGrid in grid.go) that executes scenario
// grids across cores with per-run derived seeds and mean/CI aggregation. Each experiment
// builds scenarios on the core platform, runs them through the harness,
// and returns a result that renders to text and knows the paper-expected
// values for shape checking.
package exp

import (
	"fmt"

	"meryn/internal/core"
	"meryn/internal/workload"
)

// Scenario is one platform run specification.
type Scenario struct {
	Policy   core.Policy
	Seed     int64
	Mutate   func(*core.Config) // applied after DefaultConfig
	Workload workload.Workload
	// Label names the scenario in errors surfaced by RunScenarios, so a
	// failing unit in a large grid identifies itself (e.g. the Table 1
	// case or the sweep cell), not just its run index.
	Label string
	// Setup, when non-nil, runs against the freshly built platform
	// before the workload starts — the hook chaos campaigns use to arm
	// fault injectors on the platform's engine.
	Setup func(*core.Platform)
}

// Run builds the platform and executes the scenario.
func (s Scenario) Run() (*core.Results, error) {
	cfg := core.DefaultConfig()
	cfg.Policy = s.Policy
	cfg.Seed = s.Seed
	if s.Mutate != nil {
		s.Mutate(&cfg)
	}
	p, err := core.NewPlatform(cfg)
	if err != nil {
		return nil, fmt.Errorf("exp: building platform: %w", err)
	}
	if s.Setup != nil {
		s.Setup(p)
	}
	w := s.Workload
	if w == nil {
		w = workload.Paper(workload.DefaultPaperConfig())
	}
	return p.Run(w)
}

// Experiment is a named, runnable reproduction unit for the CLI.
type Experiment struct {
	Name     string
	Artifact string // which paper artifact it regenerates
	Run      func(seed int64, opt Options) (Renderable, error)
}

// Renderable produces human-readable experiment output.
type Renderable interface {
	Render() string
}

// All returns the experiment registry in presentation order.
func All() []Experiment {
	return []Experiment{
		{Name: "table1", Artifact: "Table 1 (processing times)", Run: func(seed int64, opt Options) (Renderable, error) {
			return Table1(20, seed, opt)
		}},
		{Name: "fig5", Artifact: "Figure 5(a)/(b) (VM usage over time)", Run: func(seed int64, opt Options) (Renderable, error) {
			return Fig5(seed, opt)
		}},
		{Name: "fig6", Artifact: "Figure 6(a)/(b) (completion time & cost)", Run: func(seed int64, opt Options) (Renderable, error) {
			return Fig6(seed, opt)
		}},
		{Name: "penalty-n", Artifact: "Ablation A1 (Eq. 3 divisor N)", Run: func(seed int64, opt Options) (Renderable, error) {
			return AblationPenaltyN(seed, opt)
		}},
		{Name: "billing", Artifact: "Ablation A2 (per-second vs per-hour billing)", Run: func(seed int64, opt Options) (Renderable, error) {
			return AblationBilling(seed, opt)
		}},
		{Name: "policies", Artifact: "Ablation A3 (policy comparison under load sweep)", Run: func(seed int64, opt Options) (Renderable, error) {
			return AblationPolicies(seed, opt)
		}},
		{Name: "market", Artifact: "Ablation A4 (market price volatility)", Run: func(seed int64, opt Options) (Renderable, error) {
			return AblationMarket(seed, opt)
		}},
		{Name: "suspension", Artifact: "Ablation A5 (suspension on/off)", Run: func(seed int64, opt Options) (Renderable, error) {
			return AblationSuspension(seed, opt)
		}},
		{Name: "realistic", Artifact: "Extension: realistic datacenter workloads (paper §7)", Run: func(seed int64, opt Options) (Renderable, error) {
			return AblationRealistic(seed, opt)
		}},
		{Name: "services", Artifact: "Extension: elastic latency-SLO services (load x policy x burst)", Run: func(seed int64, opt Options) (Renderable, error) {
			m := DefaultServicesMatrix()
			m.BaseSeed = seed
			return m.Services(opt)
		}},
		{Name: "serverless", Artifact: "Extension: scale-to-zero functions (idle gap x cold start x concurrency)", Run: func(seed int64, opt Options) (Renderable, error) {
			m := DefaultServerlessMatrix()
			m.BaseSeed = seed
			return m.Serverless(opt)
		}},
		{Name: "spot", Artifact: "Extension: preemptible (spot) cloud capacity (policy x volatility x bid)", Run: func(seed int64, opt Options) (Renderable, error) {
			m := DefaultSpotMatrix()
			m.BaseSeed = seed
			return m.Spot(opt)
		}},
		{Name: "chaos", Artifact: "Extension: fault campaigns under the invariant auditor (intensity x policy)", Run: func(seed int64, opt Options) (Renderable, error) {
			m := DefaultChaosMatrix()
			m.BaseSeed = seed
			return m.Chaos(opt)
		}},
		{Name: "scale", Artifact: "Scale benchmark: one engine at 1k→100k→1M applications", Run: func(seed int64, opt Options) (Renderable, error) {
			return Scale(seed, opt)
		}},
		{Name: "sweep", Artifact: "Parallel matrix sweep (policy x load, mean ±CI)", Run: func(seed int64, opt Options) (Renderable, error) {
			m := DefaultMatrix()
			m.BaseSeed = seed
			return m.Sweep(opt)
		}},
	}
}

// Find returns the named experiment.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
