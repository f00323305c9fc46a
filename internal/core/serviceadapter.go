package core

import (
	"fmt"
	"math"

	"meryn/internal/framework"
	"meryn/internal/framework/service"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

// ServiceAdapter implements Adapter for elastic long-running services —
// the third hosted framework family. Its SLA function negotiates
// (p95 latency, lifetime price) pairs instead of (deadline, price): the
// performance model maps replica counts to the p95 response time
// achievable at the service's peak offered rate, conservatively sized
// like the batch estimate. Its bid computation generalizes Algorithm 2:
// instead of pricing the suspension of a whole application, it prices
// reclaiming replicas from the running service with the most SLO
// headroom — services shrink under bids, they are never suspended.
// ServerlessAdapter embeds it: sizing, proposal bounds and reclaim bids
// are one implementation for both fleet frameworks.
type ServiceAdapter struct {
	cfg *Config // the platform's normalized configuration
}

var _ Adapter = (*ServiceAdapter)(nil)

// Validate implements Adapter. Beyond shape checks it rejects services
// no offerable replica count can serve: when even the largest count the
// negotiation may propose saturates at the declared peak rate, no
// finite p95 exists and the contract would sell an SLO the platform
// knows it cannot meet.
func (a *ServiceAdapter) Validate(app workload.App) error {
	if app.Replicas < 1 {
		return fmt.Errorf("core: service app %s requests %d replicas", app.ID, app.Replicas)
	}
	if app.SvcRate <= 0 {
		return fmt.Errorf("core: service app %s has no per-replica capacity", app.ID)
	}
	if app.DurationS <= 0 {
		return fmt.Errorf("core: service app %s has no lifetime", app.ID)
	}
	if min, max := a.minViableReplicas(app), maxVMs(app.Replicas); min > max {
		return fmt.Errorf("core: service app %s saturates at declared rate %.1f req/s even with %d replicas",
			app.ID, a.sizingRate(app), max)
	}
	return nil
}

// replicaRate is one replica's conservative capacity in requests/s.
func (a *ServiceAdapter) replicaRate(app workload.App) float64 {
	return app.SvcRate * a.cfg.ConservativeSpeed
}

// sizingRate is the rate the provider sizes offers against: the user's
// declared peak, or the profile's true peak over the lifetime when the
// declaration is absent. The profile evaluates in absolute simulation
// time, so the peak is taken over the service's actual window
// [SubmitAt, SubmitAt+Duration] — Peak(duration) would miss bursts that
// only materialize after the submission instant.
func (a *ServiceAdapter) sizingRate(app workload.App) float64 {
	if app.DeclaredPeak > 0 {
		return app.DeclaredPeak
	}
	return app.Load.PeakIn(app.SubmitAt, app.SubmitAt+sim.Seconds(app.DurationS))
}

// minViableReplicas is the smallest replica count that does not
// saturate at the sizing rate — the floor of the proposal set (the
// provider refuses to offer configurations it knows will melt).
func (a *ServiceAdapter) minViableReplicas(app workload.App) int {
	mu := a.replicaRate(app)
	min := int(a.sizingRate(app)/mu) + 1
	if min < app.Replicas {
		min = app.Replicas
	}
	return min
}

// p95Model maps a replica count to the p95 response time achievable at
// the sizing rate — the service analogue of the batch perfect-scaling
// execution estimate (see service.Service's latency model: M/M/1-PS
// aggregate, p95 = 3*S0/(1-rho)).
func (a *ServiceAdapter) p95Model(app workload.App) sla.PerfModel {
	peak := a.sizingRate(app)
	mu := a.replicaRate(app)
	return func(n int) sim.Time {
		c := float64(n) * mu
		if c <= peak {
			// Saturated: no finite p95. An enormous-but-finite sentinel
			// keeps Offers() well-formed; the proposal floor (MinVMs)
			// keeps accepted counts out of here.
			return sim.Seconds(1e6)
		}
		rho := peak / c
		return sim.Seconds(3 / mu / (1 - rho))
	}
}

// SLAProvider implements Adapter. The proposal floor is the smallest
// replica count that keeps the declared peak below saturation, so
// accept-first users get the cheapest viable configuration.
func (a *ServiceAdapter) SLAProvider(app workload.App) *sla.Provider {
	return a.provider(app, a.p95Model(app))
}

// provider builds the service-contract negotiation counterpart around a
// p95 model. The processing allowance becomes the startup grace on the
// completion bound: the offer's time column is a pure p95 target.
func (a *ServiceAdapter) provider(app workload.App, model sla.PerfModel) *sla.Provider {
	p := a.cfg.slaProvider(model, a.minViableReplicas(app), maxVMs(app.Replicas))
	p.SLO = &sla.SLOTemplate{
		Lifetime:     sim.Seconds(app.DurationS),
		Availability: serviceAvailability,
		Interval:     serviceTick,
		StartupGrace: p.Processing * 2,
	}
	p.Processing = 0
	return p
}

// Translate implements Adapter.
func (a *ServiceAdapter) Translate(app workload.App, c *sla.Contract) *framework.Job {
	return &framework.Job{
		ID:        app.ID,
		VMs:       c.NumVMs,
		Work:      app.DurationS,
		SvcRate:   app.SvcRate,
		TargetP95: sim.ToSeconds(c.SLO.TargetP95),
		Rate:      app.Load.Rate,
	}
}

// ReclaimBid implements ReclaimBidder: the Algorithm-2 generalization
// for services and functions. The candidate victims are running jobs
// that can yield n replicas while keeping at least one; each bid is the
// projected SLO-penalty loss of the shrink (see projectedLoss).
//
// A service with latency headroom bids near zero — low-load services
// lend capacity almost freely, which is the scenario-diversity point of
// hosting them: elastic donors for deadline work — and a function deep
// in an idle gap bids little beyond its re-warm cost. Victims must hold
// n private-hosted replicas beyond their one-replica floor: Shrink
// frees private hosts first, and a promise backed by cloud leases could
// not be transferred to the requesting VC.
func (a *ServiceAdapter) ReclaimBid(cm *ClusterManager, n int, duration sim.Time) Bid {
	fw, ok := cm.fw.(shrinker)
	if !ok {
		return Bid{}
	}
	best := Bid{Cost: math.Inf(1)}
	for _, job := range cm.fw.Running() {
		st := cm.owned(job)
		if st == nil || st.contract.SLO == nil || job.Replicas-n < 1 {
			continue
		}
		if private, _, err := fw.ReplicaKinds(job.ID); err != nil || private < n {
			continue
		}
		cost := a.projectedLoss(cm, st, job, n, duration)
		if cost < best.Cost {
			best = Bid{OK: true, Cost: cost, VictimID: job.ID, Shrink: true, victim: st}
		}
	}
	if !best.OK {
		return Bid{}
	}
	return best
}

// projectedLoss prices reclaiming n replicas for the given duration:
// the extra SLO penalty of serving the current rate on the shrunken
// set,
//
//	p95' over target for duration => ceil(duration/interval) excess
//	burn intervals * penalty_per_interval,
//
// plus, for a function, the cold-start burn of re-warming the yielded
// instances when demand returns (ceil(ColdStartS/interval) intervals;
// services have no boot delay), bounded like Eq. 3. The comparison
// stays in float seconds: a saturating shrink has p95 = +Inf, which
// must read as maximally expensive (sim.Seconds would overflow it to
// negative).
func (a *ServiceAdapter) projectedLoss(cm *ClusterManager, st *appState, job *framework.Job, n int, duration sim.Time) float64 {
	slo := st.contract.SLO
	lambda := 0.0
	if job.Rate != nil {
		lambda = job.Rate(cm.p.Eng.Now())
	}
	remaining := float64(job.Replicas - n)
	mu := job.SvcRate * a.cfg.ConservativeSpeed
	c := remaining * mu
	loss := 0.0
	p95 := math.Inf(1)
	if lambda < c {
		p95 = 3 / mu / (1 - lambda/c)
	}
	if p95 > sim.ToSeconds(slo.TargetP95) {
		loss = math.Ceil(float64(duration)/float64(slo.Interval)) * slo.PenaltyPerInterval
	}
	if job.ColdStartS > 0 {
		coldIntervals := math.Ceil(job.ColdStartS / sim.ToSeconds(slo.Interval))
		loss += coldIntervals * slo.PenaltyPerInterval
	}
	if st.contract.MaxPenaltyFrac > 0 {
		if bound := st.contract.MaxPenaltyFrac * st.contract.Price; loss > bound {
			loss = bound
		}
	}
	return loss
}

// serviceFW returns the CM's framework as a service framework, or nil.
func (cm *ClusterManager) serviceFW() *service.Service {
	s, _ := cm.fw.(*service.Service)
	return s
}
