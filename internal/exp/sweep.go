package exp

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/workload"
)

// Options tunes how experiments execute. The zero value means defaults
// everywhere: one worker per core, each experiment's native sample count.
type Options struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// Reps overrides the seed-replication count for experiments that
	// sample (Table 1, sweeps). 0 keeps the experiment's default.
	Reps int
	// ScaleApps overrides the scale experiment's application-count
	// ladder (nil = the smoke ladder).
	ScaleApps []int
	// ScaleBench switches the scale experiment into benchmark mode:
	// every app count runs Reps times with wall-clock timing recorded.
	// Timings are honest measurements and belong in BENCH artifacts
	// only; invariant outputs never include them.
	ScaleBench bool
}

// Pool is a bounded worker pool for independent simulation runs. Each
// simulation is single-threaded, so sweeps scale with cores; the pool
// bounds peak memory (each in-flight run holds a full platform).
type Pool struct {
	// Workers is the concurrency bound (0 = GOMAXPROCS).
	Workers int
}

// Each runs fn(0..n-1) across the pool and waits for all of them, even
// when some fail. It returns the error from the lowest index, so the
// reported failure is independent of worker count and scheduling.
func (p Pool) Each(n int, fn func(i int) error) error {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errIdx, firstErr := -1, error(nil)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && errIdx == -1 {
				errIdx, firstErr = i, err
			}
		}
	} else {
		var mu sync.Mutex
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if err := fn(i); err != nil {
						mu.Lock()
						if errIdx == -1 || i < errIdx {
							errIdx, firstErr = i, err
						}
						mu.Unlock()
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	if errIdx >= 0 {
		return fmt.Errorf("exp: run %d: %w", errIdx, firstErr)
	}
	return nil
}

// Parallel runs fn(0..n-1) across a worker pool and waits. It is the
// error-free convenience form of Pool.Each.
func Parallel(n, workers int, fn func(i int)) {
	_ = Pool{Workers: workers}.Each(n, func(i int) error {
		fn(i)
		return nil
	})
}

// RunScenarios executes n independently-built scenarios on a bounded
// worker pool and returns their results in index order, so downstream
// aggregation is deterministic whatever the worker count. It is the
// low-level executor of the sweep harness; the reproduction experiments
// (Table 1, figures, ablations) run their unit grids through it.
func RunScenarios(n int, opt Options, build func(i int) Scenario) ([]*core.Results, error) {
	out := make([]*core.Results, n)
	err := Pool{Workers: opt.Workers}.Each(n, func(i int) error {
		s := build(i)
		r, err := s.Run()
		if err != nil {
			if s.Label != "" {
				return fmt.Errorf("%s: %w", s.Label, err)
			}
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeriveSeed maps a base seed and a stable run name to an independent
// deterministic seed. Like sim.NewRNG's stream derivation, it decouples
// every run's randomness from grid enumeration order: adding an axis
// value or changing Reps never perturbs the draws of existing runs.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64()) ^ base
}

// Matrix declares a scenario sweep grid: the cross product of policy,
// arrival rate, cluster size and offered load, replicated over Reps
// derived seeds per cell. Empty axes default to the paper's setup, so
// the zero Matrix is one Meryn-vs-static comparison at paper parameters.
type Matrix struct {
	// Name labels reports and JSON output.
	Name string
	// Policies lists the policies to compare (default: meryn, static).
	Policies []core.Policy
	// Interarrivals sweeps the per-stream arrival gap in seconds
	// (default: the paper's 5 s).
	Interarrivals []float64
	// ClusterSizes sweeps the private VM pool, split evenly across the
	// two VCs (default: the paper's 50).
	ClusterSizes []int
	// Loads sweeps the applications submitted to VC1; VC2 keeps the
	// paper's 15 (default: the paper's 50).
	Loads []int
	// Reps is the number of seed replications per cell (default 1).
	Reps int
	// BaseSeed feeds DeriveSeed for every run (default 1).
	BaseSeed int64
	// Mutate, when non-nil, applies extra config changes to every run
	// after the cell's own parameters.
	Mutate func(*core.Config)
}

// Cell is one point of the expanded grid.
type Cell struct {
	Policy       core.Policy
	Interarrival float64 // seconds between arrivals per stream
	ClusterSize  int     // total private VMs (0 = paper default)
	Load         int     // applications submitted to VC1 (0 = paper default)
}

// key returns the cell's stable identity for seed derivation and labels.
func (c Cell) key() string {
	return fmt.Sprintf("%s/ia=%g/cluster=%d/load=%d",
		c.Policy, c.Interarrival, c.ClusterSize, c.Load)
}

// Run is one expanded cell replication.
type Run struct {
	Cell Cell
	Rep  int
	Seed int64
}

// withDefaults fills empty axes with the paper's setup.
func (m Matrix) withDefaults() Matrix {
	if m.Name == "" {
		m.Name = "sweep"
	}
	if len(m.Policies) == 0 {
		m.Policies = []core.Policy{core.PolicyMeryn, core.PolicyStatic}
	}
	if len(m.Interarrivals) == 0 {
		m.Interarrivals = []float64{5}
	}
	if len(m.ClusterSizes) == 0 {
		m.ClusterSizes = []int{0}
	}
	if len(m.Loads) == 0 {
		m.Loads = []int{0}
	}
	if m.Reps <= 0 {
		m.Reps = 1
	}
	if m.BaseSeed == 0 {
		m.BaseSeed = 1
	}
	return m
}

// Expand enumerates the grid cell-major (policy, interarrival, cluster,
// load) with the cell's replications adjacent, each run carrying its
// derived seed.
func (m Matrix) Expand() []Run {
	m = m.withDefaults()
	var runs []Run
	for _, p := range m.Policies {
		for _, ia := range m.Interarrivals {
			for _, cs := range m.ClusterSizes {
				for _, ld := range m.Loads {
					cell := Cell{Policy: p, Interarrival: ia, ClusterSize: cs, Load: ld}
					for rep := 0; rep < m.Reps; rep++ {
						runs = append(runs, Run{
							Cell: cell,
							Rep:  rep,
							Seed: DeriveSeed(m.BaseSeed, fmt.Sprintf("%s/rep=%d", cell.key(), rep)),
						})
					}
				}
			}
		}
	}
	return runs
}

// scenario builds the platform run for one expanded grid point.
func (m Matrix) scenario(r Run) Scenario {
	wcfg := workload.DefaultPaperConfig()
	wcfg.Interarrival = sim.Seconds(r.Cell.Interarrival)
	if r.Cell.Load > 0 {
		vc2 := wcfg.Apps - wcfg.VC1Apps
		wcfg.VC1Apps = r.Cell.Load
		wcfg.Apps = r.Cell.Load + vc2
	}
	cell := r.Cell
	mutate := m.Mutate
	return Scenario{
		Policy:   cell.Policy,
		Seed:     r.Seed,
		Workload: workload.Paper(wcfg),
		Label:    fmt.Sprintf("cell %s rep %d", cell.key(), r.Rep),
		Mutate: func(cfg *core.Config) {
			if cell.ClusterSize > 0 {
				cfg.PrivateVMCap = cell.ClusterSize
				half := cell.ClusterSize / 2
				cfg.VCs[0].InitialVMs = half
				cfg.VCs[1].InitialVMs = cell.ClusterSize - half
				// Scale the physical site with the requested pool: the
				// paper's 9 nodes cap out at 54 default-shape VMs.
				perNode := min(cfg.Site.CoresPerNode/cfg.Shape.Cores,
					cfg.Site.MemoryMBPerNode/cfg.Shape.MemoryMB)
				if perNode < 1 {
					perNode = 1
				}
				if need := (cell.ClusterSize + perNode - 1) / perNode; need > cfg.Site.Nodes {
					cfg.Site.Nodes = need
				}
			}
			if mutate != nil {
				mutate(cfg)
			}
		},
	}
}

// Metric is the cross-replication aggregate of one measured quantity:
// sample mean, 95% confidence half-width (Student t) and observed range.
type Metric struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// metricOf condenses a summary.
func metricOf(s *stats.Summary) Metric {
	return Metric{Mean: s.Mean(), CI95: s.CI95(), Min: s.Min(), Max: s.Max()}
}

// CellStats is one aggregated grid cell of a SweepResult.
type CellStats struct {
	Policy       string  `json:"policy"`
	Interarrival float64 `json:"interarrival_s"`
	ClusterSize  int     `json:"cluster_size"` // 0 = paper default (50)
	Load         int     `json:"load"`         // 0 = paper default (50)
	Reps         int     `json:"reps"`

	Cost       Metric `json:"cost_units"`
	Completion Metric `json:"completion_s"`
	MeanExec   Metric `json:"mean_exec_s"`
	CloudSpend Metric `json:"cloud_spend_units"`
	PeakCloud  Metric `json:"peak_cloud_vms"`
	Missed     Metric `json:"deadlines_missed"`
}

// SweepResult aggregates a full matrix run: one CellStats per grid cell,
// in expansion order, so rendering and JSON output are byte-identical
// whatever the worker count.
type SweepResult struct {
	Name     string      `json:"name"`
	BaseSeed int64       `json:"base_seed"`
	Reps     int         `json:"reps"`
	Runs     int         `json:"runs"`
	Cells    []CellStats `json:"cells"`
}

// Sweep expands the matrix, executes every run on the worker pool with
// its own derived deterministic seed, and aggregates per-cell statistics.
func (m Matrix) Sweep(opt Options) (*SweepResult, error) {
	m = m.withDefaults()
	if opt.Reps > 0 {
		m.Reps = opt.Reps
	}
	runs := m.Expand()
	results, err := RunScenarios(len(runs), opt, func(i int) Scenario {
		return m.scenario(runs[i])
	})
	if err != nil {
		return nil, fmt.Errorf("exp: sweep %q: %w", m.Name, err)
	}

	res := &SweepResult{Name: m.Name, BaseSeed: m.BaseSeed, Reps: m.Reps, Runs: len(runs)}
	for i := 0; i < len(runs); i += m.Reps {
		cell := runs[i].Cell
		var cost, completion, meanExec, spend, peak, missed stats.Summary
		for rep := 0; rep < m.Reps; rep++ {
			r := results[i+rep]
			agg := metrics.AggregateRecords(r.Ledger.All())
			cost.Add(agg.TotalCost)
			completion.Add(r.CompletionTime)
			meanExec.Add(agg.MeanExecTime)
			spend.Add(r.CloudSpend)
			peak.Add(r.CloudSeries.Max())
			missed.Add(float64(agg.DeadlinesMissed))
		}
		res.Cells = append(res.Cells, CellStats{
			Policy:       cell.Policy.String(),
			Interarrival: cell.Interarrival,
			ClusterSize:  cell.ClusterSize,
			Load:         cell.Load,
			Reps:         m.Reps,
			Cost:         metricOf(&cost),
			Completion:   metricOf(&completion),
			MeanExec:     metricOf(&meanExec),
			CloudSpend:   metricOf(&spend),
			PeakCloud:    metricOf(&peak),
			Missed:       metricOf(&missed),
		})
	}
	return res, nil
}

// JSON returns the machine-readable form: indented, field order fixed by
// the struct definitions, cell order fixed by grid expansion.
func (r *SweepResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render implements Renderable: a fixed-width table with mean ± CI95.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep %q: %d cells x %d reps (base seed %d)\n\n",
		r.Name, len(r.Cells), r.Reps, r.BaseSeed)
	t := report.Table{Headers: []string{
		"policy", "ia [s]", "cluster", "vc1 apps", "cost [u]", "completion [s]", "peak cloud", "missed",
	}}
	pm := func(m Metric) string {
		if r.Reps < 2 {
			return fmt.Sprintf("%.0f", m.Mean)
		}
		return fmt.Sprintf("%.0f ±%.0f", m.Mean, m.CI95)
	}
	orDefault := func(v int) string {
		if v == 0 {
			return "paper"
		}
		return strconv.Itoa(v)
	}
	for _, c := range r.Cells {
		t.AddRow(c.Policy, fmt.Sprintf("%g", c.Interarrival),
			orDefault(c.ClusterSize), orDefault(c.Load),
			pm(c.Cost), pm(c.Completion), pm(c.PeakCloud),
			fmt.Sprintf("%.1f", c.Missed.Mean))
	}
	_ = t.Render(&b)
	b.WriteString("\ncost/completion are mean ±95% CI across reps; seeds derived per cell+rep\n")
	return b.String()
}

// DefaultMatrix is the stock sweep behind `meryn-bench -exp sweep` and
// `meryn-sim -sweep` without a spec: both policies across three offered
// loads at paper arrival rate, five replications.
func DefaultMatrix() Matrix {
	return Matrix{
		Name:  "policy-load",
		Loads: []int{35, 50, 65},
		Reps:  5,
	}
}

// ParseMatrix builds a Matrix from a compact CLI spec: space- or
// semicolon-separated key=value pairs with comma-separated values, e.g.
//
//	"policy=meryn,static interarrival=4,5,7 cluster=50,60 load=50 reps=5"
//
// Keys: policy, interarrival (seconds), cluster, load, reps, seed, name.
// An empty spec yields DefaultMatrix.
func ParseMatrix(spec string) (Matrix, error) {
	m := DefaultMatrix()
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ' ' || r == ';' })
	if len(fields) == 0 {
		return m, nil
	}
	// A fresh spec resets the default axes it names.
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || v == "" {
			return m, fmt.Errorf("exp: sweep spec %q: want key=v1,v2,...", f)
		}
		vals := strings.Split(v, ",")
		switch k {
		case "policy", "policies":
			m.Policies = nil
			for _, s := range vals {
				switch s {
				case "meryn":
					m.Policies = append(m.Policies, core.PolicyMeryn)
				case "static":
					m.Policies = append(m.Policies, core.PolicyStatic)
				default:
					return m, fmt.Errorf("exp: sweep spec: unknown policy %q", s)
				}
			}
		case "interarrival", "ia":
			m.Interarrivals = nil
			for _, s := range vals {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil || f <= 0 {
					return m, fmt.Errorf("exp: sweep spec: bad interarrival %q", s)
				}
				m.Interarrivals = append(m.Interarrivals, f)
			}
		case "cluster", "clusters":
			if m.ClusterSizes, ok = parseInts(vals, 2); !ok {
				return m, fmt.Errorf("exp: sweep spec: bad cluster list %q", v)
			}
		case "load", "loads":
			if m.Loads, ok = parseInts(vals, 1); !ok {
				return m, fmt.Errorf("exp: sweep spec: bad load list %q", v)
			}
		case "reps":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return m, fmt.Errorf("exp: sweep spec: bad reps %q", v)
			}
			m.Reps = n
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return m, fmt.Errorf("exp: sweep spec: bad seed %q", v)
			}
			m.BaseSeed = n
		case "name":
			m.Name = v
		default:
			return m, fmt.Errorf("exp: sweep spec: unknown key %q", k)
		}
	}
	return m, nil
}

// parseInts parses an axis value list, preserving spec order (cell order
// in reports follows the spec, like the policy and interarrival axes).
func parseInts(vals []string, min int) ([]int, bool) {
	var out []int
	for _, s := range vals {
		n, err := strconv.Atoi(s)
		if err != nil || n < min {
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}
