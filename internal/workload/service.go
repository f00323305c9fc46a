package workload

import (
	"meryn/internal/sim"
	"meryn/internal/stats"
)

// LoadProfile describes an open-loop request arrival process for a
// long-running service: a base rate modulated by an optional diurnal
// cycle and superimposed bursts. It is purely deterministic — the same
// profile produces the same rate at the same instant in every run —
// which keeps service simulations reproducible across worker counts.
type LoadProfile struct {
	// Base is the steady request rate in requests/s.
	Base float64
	// Diurnal, when non-nil, divides the rate by NightFactor during the
	// night half of each period (the arrival-gap model inverted for
	// open-loop rates).
	Diurnal *Diurnal
	// Bursts are transient rate multipliers.
	Bursts []Burst
	// OnOff, when non-nil, gates the rate with idle gaps: the profile
	// offers load only during the Active prefix of each Period and is
	// exactly zero for the rest — the request shape that exercises a
	// serverless function's scale-to-zero path.
	OnOff *OnOff
}

// OnOff is a square-wave gate over a load profile: Active seconds of
// traffic at the start of every Period, silence (rate zero) after.
type OnOff struct {
	Period sim.Time
	Active sim.Time
}

// gated reports whether t falls in an idle gap.
func (o *OnOff) gated(t sim.Time) bool {
	if o == nil || o.Period <= 0 || o.Active >= o.Period {
		return false
	}
	return t%o.Period >= o.Active
}

// Burst is one transient load spike: between At and At+Duration the
// offered rate multiplies by Factor.
type Burst struct {
	At       sim.Time
	Duration sim.Time
	Factor   float64
}

// Rate evaluates the profile at time t (t is absolute simulation time;
// services submitted later see the same global load shape, like tenants
// sharing one user population).
func (p *LoadProfile) Rate(t sim.Time) float64 {
	if p == nil {
		return 0
	}
	if p.OnOff.gated(t) {
		return 0
	}
	r := p.Base
	if p.Diurnal != nil {
		r /= p.Diurnal.factor(t)
	}
	for _, b := range p.Bursts {
		if t >= b.At && t < b.At+b.Duration && b.Factor > 0 {
			r *= b.Factor
		}
	}
	if r < 0 {
		return 0
	}
	return r
}

// Peak returns the maximum rate the profile reaches in [0, horizon] —
// what a conservative provider sizes SLO offers against. Callers sizing
// an application submitted at t > 0 must use PeakIn with the
// application's actual window: the profile evaluates in absolute
// simulation time, so Peak(duration) misses load shapes that only
// materialize after the submission instant (a burst at the window's
// far edge, the night half of a diurnal cycle).
func (p *LoadProfile) Peak(horizon sim.Time) float64 {
	return p.PeakIn(0, horizon)
}

// PeakIn returns the maximum rate the profile reaches in [from, to]. It
// evaluates the profile at every shape breakpoint falling inside the
// window (burst edges, diurnal phase flips, on/off gate edges) plus the
// window bounds, which is exact for this piecewise-constant family.
func (p *LoadProfile) PeakIn(from, to sim.Time) float64 {
	if p == nil || to < from {
		return 0
	}
	pts := []sim.Time{from, to}
	for _, b := range p.Bursts {
		pts = append(pts, b.At, b.At+b.Duration-1)
	}
	appendPhases := func(period sim.Time) {
		if period <= 0 {
			return
		}
		start := (from / period) * period
		if start < 0 {
			start = 0
		}
		for t := start; t <= to; t += period {
			pts = append(pts, t)
		}
	}
	if p.Diurnal != nil {
		appendPhases(p.Diurnal.Period / 2)
	}
	if p.OnOff != nil {
		appendPhases(p.OnOff.Period)
	}
	peak := 0.0
	for _, t := range pts {
		if t < from || t > to {
			continue
		}
		if r := p.Rate(t); r > peak {
			peak = r
		}
	}
	return peak
}

// ServiceConfig drives the service-stream generator: n long-running
// services with stochastic lifetimes and base rates, all sharing one
// global load shape (diurnal cycle + bursts) scaled per service.
type ServiceConfig struct {
	Apps int
	VC   string
	Seed int64

	// Interarrival spaces the service submissions (seconds; default
	// constant 60).
	Interarrival stats.Dist
	// Lifetime is the contracted service duration in seconds (default
	// constant 1800).
	Lifetime stats.Dist
	// BaseRate is the per-service steady request rate in requests/s
	// (default constant 40).
	BaseRate stats.Dist
	// SvcRate is each replica's capacity in requests/s at speed 1.0
	// (default constant 10).
	SvcRate stats.Dist
	// Replicas is the contracted replica count (default: sized so the
	// base rate loads contracted capacity to ~70%).
	Replicas stats.Dist

	// Diurnal applies a shared day/night cycle to the offered load.
	Diurnal *Diurnal
	// BurstEvery inserts a shared burst of BurstFactor x lasting
	// BurstLen every BurstEvery of simulated time (0 disables bursts).
	BurstEvery  sim.Time
	BurstLen    sim.Time
	BurstFactor float64
	// Horizon bounds burst generation (default: last submission +
	// longest default lifetime).
	Horizon sim.Time
}

// Services generates a stream of long-running service applications.
func Services(cfg ServiceConfig) Workload {
	if cfg.Apps <= 0 {
		cfg.Apps = 4
	}
	if cfg.VC == "" {
		cfg.VC = "svc"
	}
	if cfg.Interarrival == nil {
		cfg.Interarrival = stats.Constant{V: 60}
	}
	if cfg.Lifetime == nil {
		cfg.Lifetime = stats.Constant{V: 1800}
	}
	if cfg.BaseRate == nil {
		cfg.BaseRate = stats.Constant{V: 40}
	}
	if cfg.SvcRate == nil {
		cfg.SvcRate = stats.Constant{V: 10}
	}
	rng := sim.NewRNG(cfg.Seed, "workload/service/"+cfg.VC)
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Seconds(60*float64(cfg.Apps) + 3600)
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
		replicas := 0
		if cfg.Replicas != nil {
			replicas = atLeast1(cfg.Replicas.Sample(rng))
		} else {
			// Size contracted capacity so steady load sits near 70%.
			replicas = atLeast1(base / svcRate / 0.7)
		}
		w = append(w, App{
			ID:        sim.PaddedID(cfg.VC+"-", i, 3),
			Type:      TypeService,
			VC:        cfg.VC,
			SubmitAt:  at,
			VMs:       replicas,
			Replicas:  replicas,
			SvcRate:   svcRate,
			DurationS: positive(cfg.Lifetime.Sample(rng)),
			Load: &LoadProfile{
				Base:    base,
				Diurnal: cfg.Diurnal,
				Bursts:  bursts,
			},
			// Users size the SLA against the steady rate; bursts are
			// unannounced — the platform's elasticity covers them.
			DeclaredPeak: base,
		})
		at += sim.Seconds(positive(cfg.Interarrival.Sample(rng)))
	}
	return w
}
