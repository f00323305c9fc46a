package core

import (
	"fmt"

	"meryn/internal/framework"
	"meryn/internal/framework/serverless"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

// ServerlessAdapter implements Adapter for request-driven functions —
// the fourth hosted framework family. It negotiates per-invocation
// contracts: the offer's time column is the p95 target achievable with
// an instance ceiling (the M/M/1-PS model extended with an amortized
// boot-delay term), and the price column quotes projected
// pay-per-vCPU-second spend instead of reserved node-hours. A function
// that never fires pays only the capacity premium; the agreed quote
// doubles as the metered cost cap. Sizing, proposal bounds and reclaim
// bids are the service adapter's: replicas are instances, the
// negotiated count is the instance ceiling, and the reclaim bid adds
// the cold-start burn of re-warming yielded instances.
type ServerlessAdapter struct {
	ServiceAdapter
}

var _ Adapter = (*ServerlessAdapter)(nil)

// Validate implements Adapter. A function with no expected traffic
// (nil profile, zero declared peak) is valid — it negotiates a
// premium-only contract and scales to zero for its whole lifetime.
func (a *ServerlessAdapter) Validate(app *workload.App) error {
	if app.Replicas < 1 {
		return fmt.Errorf("core: serverless app %s requests instance ceiling %d", app.ID, app.Replicas)
	}
	if app.SvcRate <= 0 {
		return fmt.Errorf("core: serverless app %s has no per-instance capacity", app.ID)
	}
	if app.DurationS <= 0 {
		return fmt.Errorf("core: serverless app %s has no lifetime", app.ID)
	}
	if app.ColdStartS < 0 {
		return fmt.Errorf("core: serverless app %s has negative cold start %g", app.ID, app.ColdStartS)
	}
	if min, max := a.minViableReplicas(app), maxVMs(app.Replicas); min > max {
		return fmt.Errorf("core: serverless app %s saturates at declared rate %.1f req/s even with %d instances",
			app.ID, a.sizingRate(app), max)
	}
	return nil
}

// expectedRate dampens the sizing rate to a lifetime mean for the
// pay-per-use projection: an on/off profile only offers load during its
// duty fraction.
func (a *ServerlessAdapter) expectedRate(app *workload.App) float64 {
	duty := 1.0
	if app.Load != nil && app.Load.OnOff != nil && app.Load.OnOff.Period > 0 {
		duty = float64(app.Load.OnOff.Active) / float64(app.Load.OnOff.Period)
	}
	return a.sizingRate(app) * duty
}

// p95Model maps an instance ceiling to the p95 achievable at the sizing
// rate: the service framework's M/M/1-PS aggregate plus an amortized
// boot-delay term — activations boot the fleet in parallel, so the
// activation queue of a scale-from-zero episode drains n times faster
// and the residual cold-start charge per offer is ColdStartS / n. The
// target the user buys already prices the cold starts the idle-gap
// profile will cause.
func (a *ServerlessAdapter) p95Model(app *workload.App) sla.PerfModel {
	peak := a.sizingRate(app)
	mu := a.replicaRate(app)
	coldStart := app.ColdStartS
	return func(n int) sim.Time {
		cold := coldStart / float64(n)
		c := float64(n) * mu
		if c <= peak {
			return sim.Seconds(1e6) // saturated sentinel, never offered
		}
		rho := peak / c
		return sim.Seconds(3/mu/(1-rho) + cold)
	}
}

// SLAProvider implements Adapter: the service contract around the
// cold-start-aware p95 model, with per-invocation pricing.
func (a *ServerlessAdapter) SLAProvider(app *workload.App) *sla.Provider {
	p := a.provider(app, a.p95Model(app))
	p.SLO.Invocation = &sla.InvocationPricing{
		ExpectedRate: a.expectedRate(app),
		// One invocation consumes 1/μ vCPU-seconds by the definition of
		// the per-instance service rate.
		VCPUSeconds: 1 / a.replicaRate(app),
	}
	return p
}

// Translate implements Adapter: the service job plus the function
// shape.
func (a *ServerlessAdapter) Translate(app *workload.App, c *sla.Contract) *framework.Job {
	j := a.ServiceAdapter.Translate(app, c)
	j.ColdStartS = app.ColdStartS
	j.ConcTarget = app.ConcTarget
	j.IdleWindowS = app.IdleWindowS
	j.Revision = app.Revision
	return j
}

// serverlessFW returns the CM's framework as a serverless framework, or
// nil.
func (cm *ClusterManager) serverlessFW() *serverless.Serverless {
	s, _ := cm.fw.(*serverless.Serverless)
	return s
}
