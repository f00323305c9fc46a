package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"meryn/internal/cloud"
	"meryn/internal/cluster"
	"meryn/internal/core"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// The scale scenario: one large private site (64 nodes x 8 cores)
// hosting 64 saturated batch VCs under the static policy, no cloud.
// Every protocol decision stays on the local fast path (no bid rounds,
// no leases), so the run measures the engine, the batch scheduler and
// the ledger at six and seven figure application counts.
const (
	scaleVCs = 64
	// scaleWave / scaleWork: one application per VC every 320 s, each
	// running 1200 s on one VM — utilization 1200/(4·320) ≈ 0.94 per
	// 4-VM VC, a saturated-but-stable queue. Long-running jobs are the
	// representative PaaS batch shape (the paper's workloads run for
	// hours) and the demanding one for the control plane: a 30 s
	// monitor poll would tick ~40 times over each application's
	// lifetime, which the event-driven Application Controllers replace
	// with O(1) checks on every engine.
	scaleWave = 320
	scaleWork = 1200
)

// scaleLadderDefault is the smoke ladder used when Options.ScaleApps is
// empty: large enough to exercise the engine's arrival lane and heap,
// small enough for CI. The paper-scale ladder (1k -> 100k -> 1M) is what
// BENCH_scale.json commits.
var scaleLadderDefault = []int{1000, 5000}

// scaleConfig builds the platform for one scale run.
func scaleConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyStatic
	cfg.Seed = seed
	cfg.Site = cluster.Config{Name: "scale", Nodes: 64, CoresPerNode: 8, MemoryMBPerNode: 16384}
	cfg.PrivateVMCap = 256
	cfg.Clouds = []cloud.Config{}
	cfg.VCs = nil
	for i := 0; i < scaleVCs; i++ {
		cfg.VCs = append(cfg.VCs, core.VCConfig{
			Name: fmt.Sprintf("s%02d", i), Type: workload.TypeBatch, InitialVMs: 4,
		})
	}
	// The auditor walks every VC each tick; at 1M applications that is
	// measurement noise, and the invariance tests already cover it.
	cfg.Audit = &core.AuditConfig{Disabled: true}
	return cfg
}

// scaleWorkload generates n batch applications in waves of one per VC
// every scaleWave seconds, each arrival jittered by its VC index so no
// two applications share a submission instant.
func scaleWorkload(n int) workload.Workload {
	w := make(workload.Workload, 0, n)
	for i := 0; i < n; i++ {
		w = append(w, workload.App{
			ID:       fmt.Sprintf("app-%07d", i),
			Type:     workload.TypeBatch,
			VC:       fmt.Sprintf("s%02d", i%scaleVCs),
			SubmitAt: sim.Seconds(float64(i/scaleVCs)*scaleWave + 0.01*float64(i%scaleVCs)),
			VMs:      1,
			Work:     scaleWork,
		})
	}
	return w
}

// ScalePoint is the invariant record for one application count: only
// quantities that are byte-identical across worker counts and reps —
// the session digest, the ledger aggregate and the protocol counters.
// Wall-clock deliberately never appears here, so the JSON from any two
// runs can be compared with cmp.
type ScalePoint struct {
	Apps      int
	Digest    string
	Completed int
	Aggregate metrics.Aggregate
	Counters  core.Counters
}

// ScaleBenchCell is one honest wall-clock measurement: the given
// application count run on this machine. WallMS is the minimum over
// Reps identical runs — the standard way to strip scheduler noise from
// a shared host; every rep must produce the same digest or the bench
// fails.
type ScaleBenchCell struct {
	Apps        int
	Reps        int
	WallMS      int64
	EventsFired uint64
}

// ScaleBench carries one cell per rung plus the hardware the timings
// were taken on.
type ScaleBench struct {
	Cores      int
	GOMAXPROCS int
	Cells      []ScaleBenchCell
}

// ScaleResult is the scale experiment output. Bench is nil outside
// benchmark mode, keeping the default JSON fully invariant.
type ScaleResult struct {
	Ladder []int
	Points []ScalePoint
	Bench  *ScaleBench `json:",omitempty"`
}

// scaleRun executes one rung and returns its invariant point plus the
// honest wall-clock cost of the run.
func scaleRun(seed int64, apps int) (ScalePoint, time.Duration, uint64, error) {
	p, err := core.NewPlatform(scaleConfig(seed))
	if err != nil {
		return ScalePoint{}, 0, 0, err
	}
	s, err := p.Open()
	if err != nil {
		return ScalePoint{}, 0, 0, err
	}
	w := scaleWorkload(apps)
	start := time.Now()
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			return ScalePoint{}, 0, 0, fmt.Errorf("submit %s: %w", w[i].ID, err)
		}
	}
	res, err := s.Drain()
	if err != nil {
		return ScalePoint{}, 0, 0, fmt.Errorf("drain: %w", err)
	}
	wall := time.Since(start)
	pt := ScalePoint{
		Apps:      apps,
		Digest:    fmt.Sprintf("%016x", s.Digest()),
		Completed: len(res.Ledger.All()),
		Aggregate: metrics.AggregateRecords(res.Ledger.All()),
		Counters:  res.Counters,
	}
	return pt, wall, res.EventsFired, nil
}

// Scale runs the scale ladder. In the default (invariant) mode each
// application count runs once and the output contains no timing; in
// benchmark mode (Options.ScaleBench) each count runs Reps times
// sequentially with wall-clock recorded, and the run fails loudly if
// any rep produces a different digest.
func Scale(seed int64, opt Options) (*ScaleResult, error) {
	ladder := opt.ScaleApps
	if len(ladder) == 0 {
		ladder = scaleLadderDefault
	}
	out := &ScaleResult{Ladder: ladder}

	if !opt.ScaleBench {
		points := make([]ScalePoint, len(ladder))
		err := Pool{Workers: opt.Workers}.Each(len(ladder), func(i int) error {
			pt, _, _, err := scaleRun(seed, ladder[i])
			if err != nil {
				return fmt.Errorf("apps=%d: %w", ladder[i], err)
			}
			points[i] = pt
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Points = points
		return out, nil
	}

	// Benchmark mode: sequential, timed, digest-checked across reps.
	// Never run this through a worker pool — concurrent runs would
	// contend for cores and the timings would be fiction.
	reps := opt.Reps
	if reps <= 0 {
		reps = 3
	}
	bench := &ScaleBench{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, apps := range ladder {
		var pt ScalePoint
		var wall time.Duration
		var fired uint64
		for r := 0; r < reps; r++ {
			p, w, f, err := scaleRun(seed, apps)
			if err != nil {
				return nil, fmt.Errorf("apps=%d: %w", apps, err)
			}
			if r == 0 {
				pt, wall, fired = p, w, f
				continue
			}
			if p.Digest != pt.Digest {
				return nil, fmt.Errorf("apps=%d: nondeterministic digest across reps: %s vs %s",
					apps, p.Digest, pt.Digest)
			}
			wall = min(wall, w)
		}
		out.Points = append(out.Points, pt)
		bench.Cells = append(bench.Cells, ScaleBenchCell{Apps: apps, Reps: reps, WallMS: wall.Milliseconds(), EventsFired: fired})
	}
	out.Bench = bench
	return out, nil
}

// ParseAppsList parses a comma-separated list of application counts
// (the -scale-apps flag).
func ParseAppsList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid app count %q: want a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty app-count list")
	}
	return out, nil
}

// Render implements Renderable.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: one engine at %v applications\n", r.Ladder)
	fmt.Fprintf(&b, "%-10s %-18s %10s %14s\n", "apps", "digest", "completed", "completion(s)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10d %-18s %10d %14.0f\n", p.Apps, p.Digest, p.Completed, p.Aggregate.CompletionTime)
	}
	if r.Bench != nil {
		fmt.Fprintf(&b, "\nBenchmark (cores=%d, GOMAXPROCS=%d, wall = min over reps):\n", r.Bench.Cores, r.Bench.GOMAXPROCS)
		fmt.Fprintf(&b, "%-10s %5s %10s %14s\n", "apps", "reps", "wall(ms)", "events")
		for _, c := range r.Bench.Cells {
			fmt.Fprintf(&b, "%-10d %5d %10d %14d\n", c.Apps, c.Reps, c.WallMS, c.EventsFired)
		}
	}
	return b.String()
}
