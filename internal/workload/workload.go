// Package workload produces the application streams driving Meryn
// experiments: the paper's exact synthetic workload (65 single-VM batch
// applications, 5 s inter-arrival, 50 to VC1 and 15 to VC2), plus
// Poisson, bursty and heavy-tailed generators and a CSV trace format for
// the "workloads representative of real data centers" the paper names as
// future work.
package workload

import (
	"sort"

	"meryn/internal/sim"
	"meryn/internal/stats"
)

// AppType is the application type selecting a VC (paper §3.3: the Client
// Manager routes on type).
type AppType string

// Application types supported by the shipped frameworks.
const (
	TypeBatch      AppType = "batch"
	TypeMapReduce  AppType = "mapreduce"
	TypeService    AppType = "service"
	TypeServerless AppType = "serverless"
)

// App is the uniform submission template of §3.3: the user describes the
// application's characteristics and requirements; Meryn derives
// everything else.
type App struct {
	ID       string
	Type     AppType
	VC       string   // target virtual cluster
	SubmitAt sim.Time // arrival time

	VMs  int     // VMs the application needs (batch: dedicated nodes)
	Work float64 // batch: reference CPU-seconds on a speed-1.0 VM

	// MapReduce shape.
	MapTasks    int
	ReduceTasks int
	MapWork     float64
	ReduceWork  float64

	// Service shape: a replicated long-running service with a latency
	// SLO, driven by an open-loop request arrival process.
	Replicas  int          // contracted replicas (VMs mirrors it for routing)
	SvcRate   float64      // requests/s one replica serves at speed 1.0
	DurationS float64      // contracted service lifetime in wall seconds
	Load      *LoadProfile // offered request rate over time
	// DeclaredPeak is the rate the user sizes the SLA against. Actual
	// load may exceed it (unannounced bursts): covering the excess is
	// what the platform's elasticity is for — or the SLO burns. Zero
	// means the profile's true peak (fully honest declaration).
	DeclaredPeak float64

	// Serverless shape: a request-driven function (reuses SvcRate,
	// DurationS, Load and DeclaredPeak from the service shape).
	ColdStartS  float64 // instance boot delay in seconds
	ConcTarget  float64 // autoscaler target in-flight per warm instance
	IdleWindowS float64 // idle seconds before scale-to-zero
	Revision    string  // initial revision name (default "rev-1")
}

// Workload is a time-ordered application stream.
type Workload []App

// Sort orders the stream by submission time (stable on ties).
func (w Workload) Sort() {
	sort.SliceStable(w, func(i, j int) bool { return w[i].SubmitAt < w[j].SubmitAt })
}

// ByVC returns the applications routed to one VC.
func (w Workload) ByVC(vc string) Workload {
	var out Workload
	for _, a := range w {
		if a.VC == vc {
			out = append(out, a)
		}
	}
	return out
}

// Span returns the arrival window (time of the last submission).
func (w Workload) Span() sim.Time {
	var last sim.Time
	for _, a := range w {
		if a.SubmitAt > last {
			last = a.SubmitAt
		}
	}
	return last
}

// PaperConfig holds the paper's §5.3 workload constants.
type PaperConfig struct {
	Apps         int      // total applications (65)
	VC1Apps      int      // applications for VC1 (50)
	Interarrival sim.Time // fixed inter-arrival (5 s)
	Work         float64  // reference exec seconds (1550 on a private VM)
	VMsPerApp    int      // 1
	VC1, VC2     string   // VC names
}

// DefaultPaperConfig returns the evaluation constants of §5.3.
func DefaultPaperConfig() PaperConfig {
	return PaperConfig{
		Apps:         65,
		VC1Apps:      50,
		Interarrival: sim.Seconds(5),
		Work:         1550,
		VMsPerApp:    1,
		VC1:          "vc1",
		VC2:          "vc2",
	}
}

// Paper builds the paper's synthetic workload as two parallel submission
// streams with the same fixed inter-arrival time: 50 applications to VC1
// and 15 to VC2, both starting at t=0 (the paper's two Client-Manager
// entry points). This interleaving reproduces the reported dynamics: by
// the time VC1 exhausts its 25 private VMs (26th app, t=125 s), VC2 is
// running all 15 of its applications and holds exactly 10 idle VMs to
// lend, so VC1 ends up on 25 local + 10 VC2 + 15 cloud VMs.
func Paper(cfg PaperConfig) Workload {
	if cfg.Apps <= 0 {
		cfg = DefaultPaperConfig()
	}
	var w Workload
	for i := 0; i < cfg.VC1Apps; i++ {
		w = append(w, App{
			ID:       sim.PaddedID(cfg.VC1+"-app-", i, 3),
			Type:     TypeBatch,
			VC:       cfg.VC1,
			SubmitAt: sim.Time(i) * cfg.Interarrival,
			VMs:      cfg.VMsPerApp,
			Work:     cfg.Work,
		})
	}
	for i := 0; i < cfg.Apps-cfg.VC1Apps; i++ {
		w = append(w, App{
			ID:       sim.PaddedID(cfg.VC2+"-app-", i, 3),
			Type:     TypeBatch,
			VC:       cfg.VC2,
			SubmitAt: sim.Time(i) * cfg.Interarrival,
			VMs:      cfg.VMsPerApp,
			Work:     cfg.Work,
		})
	}
	w.Sort()
	return w
}

// Diurnal modulates arrival gaps with a day/night cycle: during the
// second half of each period, gaps stretch by NightFactor. Datacenter
// arrival traces are famously diurnal; this is the lightest model that
// produces the pattern.
type Diurnal struct {
	Period      sim.Time // full day length (scaled down for simulations)
	NightFactor float64  // gap multiplier at night; > 1 (default 4)
}

// factor returns the gap multiplier at time t.
func (d *Diurnal) factor(t sim.Time) float64 {
	if d.Period <= 0 {
		return 1
	}
	nf := d.NightFactor
	if nf <= 1 {
		nf = 4
	}
	phase := t % d.Period
	if phase >= d.Period/2 {
		return nf
	}
	return 1
}

// GenConfig drives the stochastic generators.
type GenConfig struct {
	Apps         int
	Type         AppType
	VC           string
	Seed         int64
	Interarrival stats.Dist // seconds between arrivals
	Work         stats.Dist // reference seconds per app
	VMs          stats.Dist // VMs per app (rounded, min 1)

	// Diurnal, when non-nil, applies a day/night cycle to arrivals.
	Diurnal *Diurnal

	// MapReduce shape distributions (used when Type == TypeMapReduce).
	MapTasks    stats.Dist
	ReduceTasks stats.Dist
}

// Generate produces a stochastic workload from the config. Nil
// distributions default to the paper's constants.
func Generate(cfg GenConfig) Workload {
	if cfg.Apps <= 0 {
		cfg.Apps = 65
	}
	if cfg.Type == "" {
		cfg.Type = TypeBatch
	}
	if cfg.VC == "" {
		cfg.VC = "vc1"
	}
	if cfg.Interarrival == nil {
		cfg.Interarrival = stats.Constant{V: 5}
	}
	if cfg.Work == nil {
		cfg.Work = stats.Constant{V: 1550}
	}
	if cfg.VMs == nil {
		cfg.VMs = stats.Constant{V: 1}
	}
	rng := sim.NewRNG(cfg.Seed, "workload/"+cfg.VC)
	var w Workload
	at := sim.Time(0)
	for i := 0; i < cfg.Apps; i++ {
		app := App{
			ID:       sim.PaddedID(cfg.VC+"-", i, 3),
			Type:     cfg.Type,
			VC:       cfg.VC,
			SubmitAt: at,
			VMs:      atLeast1(cfg.VMs.Sample(rng)),
			Work:     positive(cfg.Work.Sample(rng)),
		}
		if cfg.Type == TypeMapReduce {
			maps := stats.Dist(stats.Constant{V: 8})
			reds := stats.Dist(stats.Constant{V: 2})
			if cfg.MapTasks != nil {
				maps = cfg.MapTasks
			}
			if cfg.ReduceTasks != nil {
				reds = cfg.ReduceTasks
			}
			app.MapTasks = atLeast1(maps.Sample(rng))
			app.ReduceTasks = atLeast0(reds.Sample(rng))
			// Split the work budget: 75% maps, 25% reduces (typical
			// map-heavy jobs).
			app.MapWork = positive(app.Work * 0.75 / float64(app.MapTasks))
			if app.ReduceTasks > 0 {
				app.ReduceWork = positive(app.Work * 0.25 / float64(app.ReduceTasks))
			}
		}
		w = append(w, app)
		gap := positive(cfg.Interarrival.Sample(rng))
		if cfg.Diurnal != nil {
			gap *= cfg.Diurnal.factor(at)
		}
		at += sim.Seconds(gap)
	}
	return w
}

// Merge combines streams into one time-ordered workload.
func Merge(streams ...Workload) Workload {
	var out Workload
	for _, s := range streams {
		out = append(out, s...)
	}
	out.Sort()
	return out
}

// WaveConfig drives Waves: batches of near-simultaneous arrivals that
// overflow a small private pool all at once — the cloud-bursting
// stressor behind the spot experiment. Each wave's applications land
// within Jitter of the wave instant, so the selection protocol faces
// the whole burst before any of it completes.
type WaveConfig struct {
	Waves   int    // arrival waves (default 4)
	PerWave int    // applications per wave (default 6)
	VC      string // target VC (default "vc1")
	Seed    int64

	Gap    sim.Time   // wave spacing (default 600 s)
	Jitter stats.Dist // per-app offset within a wave, seconds (default Uniform 0-5)
	Work   stats.Dist // reference seconds per app (default Normal 2400±600, min 300)
	VMs    stats.Dist // VMs per app (default 2)
}

// Waves produces synchronized batch arrival waves from the config.
func Waves(cfg WaveConfig) Workload {
	if cfg.Waves <= 0 {
		cfg.Waves = 4
	}
	if cfg.PerWave <= 0 {
		cfg.PerWave = 6
	}
	if cfg.VC == "" {
		cfg.VC = "vc1"
	}
	if cfg.Gap <= 0 {
		cfg.Gap = sim.Seconds(600)
	}
	if cfg.Jitter == nil {
		cfg.Jitter = stats.Uniform{Lo: 0, Hi: 5}
	}
	if cfg.Work == nil {
		cfg.Work = stats.Normal{Mu: 2400, Sigma: 600, Min: 300}
	}
	if cfg.VMs == nil {
		cfg.VMs = stats.Constant{V: 2}
	}
	rng := sim.NewRNG(cfg.Seed, "workload/waves/"+cfg.VC)
	var w Workload
	for wave := 0; wave < cfg.Waves; wave++ {
		at := sim.Time(wave) * cfg.Gap
		prefix := sim.PaddedID(cfg.VC+"-w", wave, 2) + "-"
		for i := 0; i < cfg.PerWave; i++ {
			w = append(w, App{
				ID:       sim.PaddedID(prefix, i, 2),
				Type:     TypeBatch,
				VC:       cfg.VC,
				SubmitAt: at + sim.Seconds(positive(cfg.Jitter.Sample(rng))),
				VMs:      atLeast1(cfg.VMs.Sample(rng)),
				Work:     positive(cfg.Work.Sample(rng)),
			})
		}
	}
	w.Sort()
	return w
}

func atLeast1(v float64) int {
	n := int(v + 0.5)
	if n < 1 {
		return 1
	}
	return n
}

func atLeast0(v float64) int {
	n := int(v + 0.5)
	if n < 0 {
		return 0
	}
	return n
}

func positive(v float64) float64 {
	if v <= 0 {
		return 0.001
	}
	return v
}
