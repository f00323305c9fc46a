package core

import (
	"fmt"
	"math"

	"meryn/internal/framework"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

// Adapter is the framework-specific part of a Cluster Manager (paper
// §3.2): it proposes SLAs for incoming applications and translates the
// uniform submission template into a framework job. Everything else in
// the Cluster Manager is generic.
type Adapter interface {
	// Validate rejects malformed application descriptions.
	Validate(app workload.App) error
	// SLAProvider builds the negotiation counterpart for an application,
	// embedding the framework's performance model.
	SLAProvider(app workload.App) *sla.Provider
	// Translate converts the user template into a framework job (§3.3:
	// "translates the application description template to another
	// template compatible with its programming framework").
	Translate(app workload.App, c *sla.Contract) *framework.Job
}

// slaProvider builds a negotiation counterpart offering minVMs to
// maxVMs VMs under the platform's SLA terms: Eq. 1's processing
// allowance, the user-facing VM price and the penalty terms.
func (c *Config) slaProvider(model sla.PerfModel, minVMs, maxVMs int) *sla.Provider {
	return &sla.Provider{
		Model:          model,
		Processing:     sim.Seconds(c.ProcessingEstimate),
		VMPrice:        c.UserVMPrice,
		PenaltyN:       c.PenaltyN,
		MaxPenaltyFrac: c.MaxPenaltyFrac,
		MinVMs:         minVMs,
		MaxVMs:         maxVMs,
	}
}

// maxVMs bounds a proposal set that starts at n VMs: offers cover n up
// to slaScaleOutLimit times it ("a set of pairs", §4.2.1). The service
// controller's elastic growth stops at the same bound.
func maxVMs(n int) int { return n * slaScaleOutLimit }

// BatchAdapter implements Adapter for batch applications (paper §4.2).
type BatchAdapter struct {
	cfg *Config // the platform's normalized configuration
}

var _ Adapter = (*BatchAdapter)(nil)

// Validate implements Adapter.
func (a *BatchAdapter) Validate(app workload.App) error {
	if app.VMs < 1 {
		return fmt.Errorf("core: batch app %s requests %d VMs", app.ID, app.VMs)
	}
	if app.Work <= 0 {
		return fmt.Errorf("core: batch app %s has no work", app.ID)
	}
	return nil
}

// execEst is the batch performance model: perfect scaling over dedicated
// VMs at the conservative node speed.
func (a *BatchAdapter) execEst(app workload.App) sla.PerfModel {
	return func(n int) sim.Time {
		return sim.Seconds(app.Work / a.cfg.ConservativeSpeed / float64(n))
	}
}

// SLAProvider implements Adapter. The first offer carries exactly the VM
// count the application requested (so accept-first users get the paper's
// behaviour); further offers scale the count up to slaScaleOutLimit
// times for deadline-constrained users to buy speed.
func (a *BatchAdapter) SLAProvider(app workload.App) *sla.Provider {
	return a.cfg.slaProvider(a.execEst(app), app.VMs, maxVMs(app.VMs))
}

// Translate implements Adapter.
func (a *BatchAdapter) Translate(app workload.App, c *sla.Contract) *framework.Job {
	return &framework.Job{ID: app.ID, VMs: c.NumVMs, Work: app.Work}
}

// MapReduceAdapter implements Adapter for MapReduce applications — the
// paper's stated future work ("propose a bid computation model and an
// SLA function for MapReduce applications"), realized here.
type MapReduceAdapter struct {
	cfg   *Config // the platform's normalized configuration
	slots int     // task slots per node
}

var _ Adapter = (*MapReduceAdapter)(nil)

// Validate implements Adapter.
func (a *MapReduceAdapter) Validate(app workload.App) error {
	if app.VMs < 1 {
		return fmt.Errorf("core: mapreduce app %s requests %d VMs", app.ID, app.VMs)
	}
	if app.MapTasks < 1 || app.MapWork <= 0 {
		return fmt.Errorf("core: mapreduce app %s has no map phase", app.ID)
	}
	if app.ReduceTasks > 0 && app.ReduceWork <= 0 {
		return fmt.Errorf("core: mapreduce app %s has reduces without work", app.ID)
	}
	return nil
}

// execEst is the MapReduce performance model: wave-based completion for
// both phases given n nodes of slotsPerNode slots each at the
// conservative speed. This is the SLA function for MapReduce the paper
// leaves as future work.
func (a *MapReduceAdapter) execEst(app workload.App) sla.PerfModel {
	return func(n int) sim.Time {
		total := float64(n * a.slots)
		mapWaves := math.Ceil(float64(app.MapTasks) / total)
		redWaves := math.Ceil(float64(app.ReduceTasks) / total)
		secs := (mapWaves*app.MapWork + redWaves*app.ReduceWork) / a.cfg.ConservativeSpeed
		return sim.Seconds(secs)
	}
}

// SLAProvider implements Adapter.
func (a *MapReduceAdapter) SLAProvider(app workload.App) *sla.Provider {
	return a.cfg.slaProvider(a.execEst(app), app.VMs, maxVMs(app.VMs))
}

// Translate implements Adapter.
func (a *MapReduceAdapter) Translate(app workload.App, c *sla.Contract) *framework.Job {
	return &framework.Job{
		ID:          app.ID,
		VMs:         c.NumVMs,
		MapTasks:    app.MapTasks,
		ReduceTasks: app.ReduceTasks,
		MapWork:     app.MapWork,
		ReduceWork:  app.ReduceWork,
	}
}
