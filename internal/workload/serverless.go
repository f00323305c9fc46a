package workload

import (
	"meryn/internal/sim"
	"meryn/internal/stats"
)

// FunctionConfig drives the serverless-stream generator: n
// request-driven functions with stochastic lifetimes, per-instance
// capacities and cold-start costs, each offered an on/off load with
// idle gaps long enough to exercise scale-to-zero, plus optional
// shared bursts that exercise panic-mode scaling.
type FunctionConfig struct {
	Apps int
	VC   string
	Seed int64

	// Interarrival spaces the function registrations (seconds; default
	// constant 30).
	Interarrival stats.Dist
	// Lifetime is the contracted function registration in seconds
	// (default constant 1800).
	Lifetime stats.Dist
	// BaseRate is the per-function request rate while active, in
	// requests/s (default constant 20).
	BaseRate stats.Dist
	// SvcRate is each instance's capacity in requests/s at speed 1.0
	// (default constant 10).
	SvcRate stats.Dist
	// ColdStart is the instance boot delay in seconds (default
	// constant 5).
	ColdStart stats.Dist

	// ConcTarget is the autoscaler's in-flight-per-instance target
	// (default 2).
	ConcTarget float64
	// IdleWindow is the scale-to-zero idle window in seconds (default
	// 60).
	IdleWindow stats.Dist

	// ActiveS and IdleGapS shape the on/off request gate: each function
	// offers load for ActiveS seconds, then goes silent for IdleGapS
	// seconds, repeating (defaults 180 active / 240 idle — gaps long
	// enough that a 60 s idle window reaches zero replicas). Zero
	// IdleGapS disables the gate (continuous load).
	ActiveS  stats.Dist
	IdleGapS stats.Dist

	// BurstEvery inserts a shared burst of BurstFactor x lasting
	// BurstLen every BurstEvery of simulated time (0 disables bursts).
	BurstEvery  sim.Time
	BurstLen    sim.Time
	BurstFactor float64
	// Horizon bounds burst generation (default: last submission +
	// longest default lifetime).
	Horizon sim.Time
}

// Functions generates a stream of serverless function applications.
func Functions(cfg FunctionConfig) Workload {
	if cfg.Apps <= 0 {
		cfg.Apps = 4
	}
	if cfg.VC == "" {
		cfg.VC = "fn"
	}
	if cfg.Interarrival == nil {
		cfg.Interarrival = stats.Constant{V: 30}
	}
	if cfg.Lifetime == nil {
		cfg.Lifetime = stats.Constant{V: 1800}
	}
	if cfg.BaseRate == nil {
		cfg.BaseRate = stats.Constant{V: 20}
	}
	if cfg.SvcRate == nil {
		cfg.SvcRate = stats.Constant{V: 10}
	}
	if cfg.ColdStart == nil {
		cfg.ColdStart = stats.Constant{V: 5}
	}
	if cfg.ConcTarget <= 0 {
		cfg.ConcTarget = 2
	}
	if cfg.IdleWindow == nil {
		cfg.IdleWindow = stats.Constant{V: 60}
	}
	if cfg.ActiveS == nil {
		cfg.ActiveS = stats.Constant{V: 180}
	}
	if cfg.IdleGapS == nil {
		cfg.IdleGapS = stats.Constant{V: 240}
	}
	rng := sim.NewRNG(cfg.Seed, "workload/serverless/"+cfg.VC)
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Seconds(30*float64(cfg.Apps) + 3600)
	}
	var bursts []Burst
	if cfg.BurstEvery > 0 && cfg.BurstFactor > 0 {
		length := cfg.BurstLen
		if length <= 0 {
			length = cfg.BurstEvery / 6
		}
		for at := cfg.BurstEvery; at < cfg.Horizon; at += cfg.BurstEvery {
			bursts = append(bursts, Burst{At: at, Duration: length, Factor: cfg.BurstFactor})
		}
	}
	var w Workload
	at := sim.Time(0)
	for i := 0; i < cfg.Apps; i++ {
		base := positive(cfg.BaseRate.Sample(rng))
		svcRate := positive(cfg.SvcRate.Sample(rng))
		active := positive(cfg.ActiveS.Sample(rng))
		gap := cfg.IdleGapS.Sample(rng)
		var onOff *OnOff
		if gap > 0 {
			onOff = &OnOff{
				Period: sim.Seconds(active + gap),
				Active: sim.Seconds(active),
			}
		}
		// Instance ceiling sized like a service fleet at ~70% load; the
		// function idles at zero and only reaches the ceiling under
		// bursts. VMs mirrors it for routing and negotiation.
		ceiling := atLeast1(base / svcRate / 0.7)
		w = append(w, App{
			ID:          sim.PaddedID(cfg.VC+"-", i, 3),
			Type:        TypeServerless,
			VC:          cfg.VC,
			SubmitAt:    at,
			VMs:         ceiling,
			Replicas:    ceiling,
			SvcRate:     svcRate,
			DurationS:   positive(cfg.Lifetime.Sample(rng)),
			ColdStartS:  positive(cfg.ColdStart.Sample(rng)),
			ConcTarget:  cfg.ConcTarget,
			IdleWindowS: positive(cfg.IdleWindow.Sample(rng)),
			Load: &LoadProfile{
				Base:   base,
				Bursts: bursts,
				OnOff:  onOff,
			},
			// Users size the SLA against the steady active rate; bursts
			// are unannounced, covered by elasticity or burned.
			DeclaredPeak: base,
		})
		at += sim.Seconds(positive(cfg.Interarrival.Sample(rng)))
	}
	return w
}
