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
// Every protocol decision stays on the shard-local fast path, so the
// sharded runtime's byte-identity contract covers the whole run and the
// experiment doubles as an end-to-end invariance check at six and seven
// figure application counts.
const (
	scaleVCs = 64
	// scaleWindow is the sharded tick-window width. Arrival waves land
	// every scaleWave seconds, so a 240 s window amortizes waves per
	// barrier while staying under the drain grace period.
	scaleWindow = 240
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
// empty: large enough to exercise the arrival queue and per-shard heaps,
// small enough for CI. The paper-scale ladder (1k -> 100k -> 1M) is what
// BENCH_scale.json commits.
var scaleLadderDefault = []int{1000, 5000}

// scaleConfig builds the platform for one scale run.
func scaleConfig(seed int64, shards int) core.Config {
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
	cfg.Shards = shards
	if shards > 1 {
		cfg.ShardWindow = sim.Seconds(scaleWindow)
	}
	return cfg
}

// scaleWorkload generates n batch applications in waves of one per VC
// every scaleWave seconds, each arrival jittered by its VC index so no
// two applications share a submission instant (the byte-identity
// contract excludes cross-shard same-instant ties).
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
// quantities that are byte-identical across shard and worker counts —
// the session digest, the ledger aggregate and the protocol counters.
// Wall-clock and engine topology deliberately never appear here, so the
// JSON from -shards 1 and -shards 8 runs can be compared with cmp.
type ScalePoint struct {
	Apps      int
	Digest    string
	Completed int
	Aggregate metrics.Aggregate
	Counters  core.Counters
}

// ScaleBenchCell is one honest wall-clock measurement: the given
// application count run at the given shard count, on this machine.
// WallMS is the minimum over Reps identical runs — the standard way to
// strip scheduler noise from a single-core container; every rep must
// produce the same digest or the bench fails.
type ScaleBenchCell struct {
	Apps        int
	Shards      int
	Reps        int
	WallMS      int64
	EventsFired uint64
	// Speedup is wall-clock relative to the Shards=1 cell at the same
	// application count (1.0 for that cell itself).
	Speedup float64
}

// ScaleBench carries the timing grid plus the hardware context needed
// to read it: the shard phases can run in parallel on at most
// GOMAXPROCS cores, and every cell runs the same event-driven
// controllers, so a speedup is the sharded runtime's parallelism net of
// its barrier cost.
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

// scaleRun executes one (apps, shards) cell and returns its invariant
// point plus the honest wall-clock cost of the run.
func scaleRun(seed int64, apps, shards int) (ScalePoint, time.Duration, uint64, error) {
	p, err := core.NewPlatform(scaleConfig(seed, shards))
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
// application count runs once at Options.Shards and the output contains
// no timing; in benchmark mode (Options.ScaleBench) each count runs at
// shard counts 1, 4 and 8 sequentially with wall-clock recorded, and
// the run fails loudly if any shard count produces a different digest.
func Scale(seed int64, opt Options) (*ScaleResult, error) {
	ladder := opt.ScaleApps
	if len(ladder) == 0 {
		ladder = scaleLadderDefault
	}
	out := &ScaleResult{Ladder: ladder}

	if !opt.ScaleBench {
		shards := opt.Shards
		if shards <= 0 {
			shards = 1
		}
		points := make([]ScalePoint, len(ladder))
		err := Pool{Workers: opt.Workers}.Each(len(ladder), func(i int) error {
			pt, _, _, err := scaleRun(seed, ladder[i], shards)
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

	// Benchmark mode: sequential, timed, digest-checked across shard
	// counts. Never run this through a worker pool — concurrent runs
	// would contend for cores and the timings would be fiction.
	reps := opt.Reps
	if reps <= 0 {
		reps = 3
	}
	bench := &ScaleBench{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, apps := range ladder {
		var base ScalePoint
		var baseWall time.Duration
		for _, shards := range []int{1, 4, 8} {
			var pt ScalePoint
			var wall time.Duration
			var fired uint64
			for r := 0; r < reps; r++ {
				p, w, f, err := scaleRun(seed, apps, shards)
				if err != nil {
					return nil, fmt.Errorf("apps=%d shards=%d: %w", apps, shards, err)
				}
				if r == 0 {
					pt, wall, fired = p, w, f
					continue
				}
				if p.Digest != pt.Digest {
					return nil, fmt.Errorf("apps=%d shards=%d: nondeterministic digest across reps: %s vs %s",
						apps, shards, p.Digest, pt.Digest)
				}
				if w < wall {
					wall = w
				}
			}
			cell := ScaleBenchCell{Apps: apps, Shards: shards, Reps: reps, WallMS: wall.Milliseconds(), EventsFired: fired, Speedup: 1}
			if shards == 1 {
				base, baseWall = pt, wall
				out.Points = append(out.Points, pt)
			} else {
				if pt.Digest != base.Digest {
					return nil, fmt.Errorf("apps=%d: digest diverged: shards=%d gave %s, shards=1 gave %s",
						apps, shards, pt.Digest, base.Digest)
				}
				if wall > 0 {
					cell.Speedup = float64(baseWall) / float64(wall)
				}
			}
			bench.Cells = append(bench.Cells, cell)
		}
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
	fmt.Fprintf(&b, "Scale: sharded core at %v applications\n", r.Ladder)
	fmt.Fprintf(&b, "%-10s %-18s %10s %14s\n", "apps", "digest", "completed", "completion(s)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10d %-18s %10d %14.0f\n", p.Apps, p.Digest, p.Completed, p.Aggregate.CompletionTime)
	}
	if r.Bench != nil {
		fmt.Fprintf(&b, "\nBenchmark (cores=%d, GOMAXPROCS=%d, wall = min over reps):\n", r.Bench.Cores, r.Bench.GOMAXPROCS)
		fmt.Fprintf(&b, "%-10s %7s %5s %10s %14s %9s\n", "apps", "shards", "reps", "wall(ms)", "events", "speedup")
		for _, c := range r.Bench.Cells {
			fmt.Fprintf(&b, "%-10d %7d %5d %10d %14d %8.2fx\n", c.Apps, c.Shards, c.Reps, c.WallMS, c.EventsFired, c.Speedup)
		}
	}
	return b.String()
}
