package core

import (
	"math"

	"meryn/internal/framework"
	"meryn/internal/framework/batch"
	"meryn/internal/framework/service"
	"meryn/internal/sim"
)

// Enforcer reacts to SLA violations reported by Application Controllers.
// The paper leaves enforcement policies open ("the Cluster Manager
// proceeds to address the SLA violation according to specific policies
// that are not treated in this paper"); the hook is the extension point.
type Enforcer interface {
	// OnViolation fires once per application when its deadline passes
	// unfinished (projected=false), and once when the controller first
	// projects that the deadline will be missed (projected=true).
	OnViolation(cm *ClusterManager, appID string, projected bool)
}

// NoopEnforcer records violations without intervening (the default).
type NoopEnforcer struct{}

// OnViolation implements Enforcer.
func (NoopEnforcer) OnViolation(*ClusterManager, string, bool) {}

// ScaleOutEnforcer reacts to projected violations by leasing extra cloud
// VMs for the affected VC — one concrete instantiation of the
// enforcement policies the paper leaves open. It is most effective for
// slot-scheduled frameworks (MapReduce), where added nodes immediately
// absorb queued tasks; the idle-cloud GC reclaims the VMs afterwards.
type ScaleOutEnforcer struct {
	// BoostVMs is how many cloud VMs to add per projected violation
	// (default 1).
	BoostVMs int
	// MaxBoosts caps total interventions per run (default 16).
	MaxBoosts int

	boosts int
}

// OnViolation implements Enforcer.
func (e *ScaleOutEnforcer) OnViolation(cm *ClusterManager, _ string, projected bool) {
	if !projected {
		return // too late to help; the penalty machinery settles it
	}
	maxBoosts := e.MaxBoosts
	if maxBoosts <= 0 {
		maxBoosts = 16
	}
	if e.boosts >= maxBoosts {
		return
	}
	n := e.BoostVMs
	if n <= 0 {
		n = 1
	}
	e.boosts++
	cm.BoostWithCloud(n)
}

// AppController monitors one application's execution progress and SLA
// satisfaction until the end of its execution (paper §3.2/§3.3). For
// service applications it additionally runs the elasticity loop:
// tracking rolling latency percentiles against the contract SLO,
// steering the service's replica target, and invoking the Enforcer when
// local capacity cannot cover the target before the SLO burns.
type AppController struct {
	cm *ClusterManager
	st *appState
	// timer is the next wake-up, due at nextAt.
	timer sim.Timer

	// Checks land on the grid created + k·monitorInterval. A polling
	// controller wakes at every grid instant. A batch app without an
	// SLO evaluates monotone conditions against a linear progress
	// model, so between job transitions the first grid instant at which
	// a check could act is computable in closed form — the controller
	// sleeps until exactly that instant, and every counter a poll would
	// produce is produced at the same virtual time. Any transition that
	// breaks progress linearity (suspension, crash requeue) sets poll
	// for the app's remaining lifetime.
	created    sim.Time
	nextAt     sim.Time
	wake       func() // onWake, bound once so re-arming allocates nothing
	poll       bool   // check at every grid instant
	segChecked bool   // current execution segment's projection already decided
	stopped    bool

	reportedProjected bool
	reportedViolation bool

	// sloArmed re-arms SLO projections: unlike the one-shot deadline
	// projection, latency pressure recurs with every burst, so the
	// enforcer fires once per pressure episode (armed on shortfall,
	// disarmed when the target is met again).
	sloArmed bool

	// capped marks a serverless contract that exhausted its metered cost
	// cap; the throttle fires once.
	capped bool
}

// newAppController starts monitoring; the controller lives until the
// application finishes. Batch applications without an SLO sleep until
// their next effect (unless the pollControllers oracle is set); every
// other controller polls.
func newAppController(cm *ClusterManager, st *appState) *AppController {
	_, batch := cm.ad.(*BatchAdapter)
	ac := &AppController{cm: cm, st: st, created: cm.p.Eng.Now(),
		poll: !batch || st.contract.SLO != nil || cm.p.pollControllers}
	ac.wake = ac.onWake
	ac.resync()
	return ac
}

// gridAfter returns the first check instant (created + k·I, k ≥ 1)
// strictly after t — "strictly" because both check conditions
// (now > deadline; now + est > deadline) are strict comparisons.
func (ac *AppController) gridAfter(t sim.Time) sim.Time {
	if t < ac.created {
		return ac.created + monitorInterval
	}
	k := (t - ac.created) / monitorInterval
	return ac.created + (k+1)*monitorInterval
}

// nextEffectAt computes the earliest grid instant at which check()
// could have an effect given the current job regime, or 0 for none.
func (ac *AppController) nextEffectAt() sim.Time {
	st := ac.st
	if st.job == nil || st.job.State == framework.JobDone {
		return 0
	}
	now := ac.cm.p.Eng.Now()
	if ac.poll {
		return ac.gridAfter(now)
	}
	deadline := st.rec.Deadline
	if ac.reportedViolation {
		return 0 // every later poll tick is a no-op
	}
	if ac.reportedProjected {
		// Only the hard-violation branch remains: now > deadline.
		return ac.gridAfter(deadline)
	}
	if st.job.State == framework.JobQueued && !st.job.Started {
		// Estimate branch: fires once now + ExecEst > deadline.
		at := ac.gridAfter(deadline - st.contract.ExecEst)
		if v := ac.gridAfter(deadline); v < at {
			at = v
		}
		return at
	}
	if !ac.segChecked {
		// First execution segment of a batch job: progress is linear
		// from StartedAt, so the projected finish is constant — the
		// check at the next grid instant decides the projection for
		// the whole segment.
		t1 := ac.gridAfter(now)
		if v := ac.gridAfter(deadline); v < t1 {
			return v
		}
		// Pre-compute that check: ProgressAt replays the poll's exact
		// float math at t1, so when the projection cannot fire (the
		// common case — the segment finishes under the deadline) the
		// controller goes dormant without scheduling anything; the
		// framework's pre-scheduled finish is the next effect.
		if fw, ok := ac.cm.fw.(*batch.Batch); ok {
			if p1, err := fw.ProgressAt(st.app.ID, t1); err == nil && p1 > 0 {
				if p1 >= 1 {
					return 0 // finishes by t1; that tick would no-op
				}
				elapsed := t1 - st.job.StartedAt
				eta := t1 + sim.Time(float64(elapsed)*(1-p1)/p1)
				if eta <= deadline {
					return 0 // on-time segment: every later tick no-ops
				}
			}
		}
		return t1
	}
	// Running, segment projection decided under the deadline: the
	// framework's pre-scheduled finish lands at the projected eta,
	// before the deadline, so no later grid instant can act — the
	// controller goes fully dormant until a transition hook.
	return 0
}

// resync (re)schedules the next check. It is the only way a controller
// is armed: at creation, after every fired check, and from the
// job-transition hooks.
func (ac *AppController) resync() {
	if ac.stopped {
		return
	}
	ac.timer.Cancel()
	at := ac.nextEffectAt()
	if at == 0 {
		return
	}
	ac.nextAt = at
	ac.timer = ac.cm.p.Eng.After(at-ac.cm.p.Eng.Now(), ac.wake)
}

// onWake runs one check and schedules the next.
func (ac *AppController) onWake() {
	ac.check()
	// A check that observed an execution segment in flight (elapsed > 0,
	// so the eta branch ran) has decided the segment's constant
	// projection; later grid instants are no-ops until a transition.
	if ac.st.job != nil && ac.st.job.State == framework.JobRunning && !ac.poll &&
		ac.cm.p.Eng.Now() > ac.st.job.StartedAt {
		ac.segChecked = true
	}
	ac.resync()
}

// dueNow reports whether a wake-up is pending at the current instant.
func (ac *AppController) dueNow() bool {
	return ac.timer.Active() && ac.nextAt == ac.cm.p.Eng.Now()
}

// jobStarted is the transition hook for a (re)started job: a fresh
// execution segment needs one projection check.
func (ac *AppController) jobStarted() {
	ac.segChecked = false
	if ac.dueNow() {
		// A check due this very instant still fires after this event —
		// matching the poll's tick at this grid instant, which evaluates
		// identically before and after a zero-progress start.
		return
	}
	ac.resync()
}

// jobInterrupted is the transition hook for suspension or crash
// requeue: progress is no longer linear from StartedAt, so the app
// polls every grid instant from here on.
func (ac *AppController) jobInterrupted() {
	ac.poll = true
	if ac.dueNow() {
		return // due this instant; let it fire, like the poll's tick
	}
	ac.resync()
}

// check inspects progress and deadline status.
func (ac *AppController) check() {
	st := ac.st
	if st.job == nil || st.job.State == framework.JobDone {
		ac.stop()
		return
	}
	if st.contract.SLO != nil {
		if ac.cm.serverlessFW() != nil {
			ac.checkServerless()
		} else {
			ac.checkService()
		}
		return
	}
	now := ac.cm.p.Eng.Now()
	deadline := st.rec.Deadline

	// Hard violation: the deadline passed and the application has not
	// finished. The Cluster Manager is informed exactly once.
	if now > deadline && !ac.reportedViolation {
		ac.reportedViolation = true
		ac.cm.p.Counters.Violations.Inc()
		ac.cm.p.cfg.Enforcer.OnViolation(ac.cm, st.app.ID, false)
		return
	}

	// Early warning: project the finish time from observed progress.
	if ac.reportedProjected || ac.reportedViolation {
		return
	}
	progress, err := ac.cm.fw.Progress(st.app.ID)
	if err != nil || progress <= 0 {
		// Not started yet: project from the conservative estimate.
		if now+st.contract.ExecEst > deadline {
			ac.reportProjected()
		}
		return
	}
	elapsed := now - st.job.StartedAt
	if progress >= 1 || elapsed <= 0 {
		return
	}
	eta := now + sim.Time(float64(elapsed)*(1-progress)/progress)
	if eta > deadline {
		ac.reportProjected()
	}
}

func (ac *AppController) reportProjected() {
	ac.reportedProjected = true
	ac.cm.p.Counters.Projected.Inc()
	ac.cm.p.cfg.Enforcer.OnViolation(ac.cm, ac.st.app.ID, true)
}

// checkService runs the service elasticity loop: pull the framework's
// latency and burn accounting into the record, recompute the replica
// target from the offered load, and escalate to the Enforcer when the
// VC cannot cover the target from attached capacity.
func (ac *AppController) checkService() {
	cm := ac.cm
	svc := cm.serviceFW()
	if svc == nil {
		return
	}
	id := ac.st.app.ID
	stats, err := svc.ServiceStats(id)
	if err != nil {
		return
	}
	rec := ac.st.rec
	rec.SLOIntervals, rec.SLOBurned = stats.Intervals, stats.Burned
	if stats.PeakReplicas > rec.PeakReplicas {
		rec.PeakReplicas = stats.PeakReplicas
	}
	if ac.st.job.State != framework.JobRunning {
		// Queued or suspended: every tick burns; placement machinery and
		// victim resume own the recovery.
		return
	}

	target := ac.desiredReplicas(stats)
	if target != stats.Target {
		if target > stats.Target {
			cm.p.Counters.ReplicaScaleOuts.Inc()
		} else {
			cm.p.Counters.ReplicaScaleIns.Inc()
		}
		_ = svc.SetTargetReplicas(id, target)
	}
	ac.sloCovered(ac.st.job.Replicas >= target) // after any synchronous growth or shrink
}

// checkServerless monitors one function. Unlike services, the framework
// autoscales functions itself (concurrency target, panic mode, scale to
// zero); the controller's jobs are folding the framework accounting into
// the ledger, enforcing the metered cost cap, and escalating to the
// Enforcer when the VC's free capacity cannot cover the fleet target
// while the SLO burns.
func (ac *AppController) checkServerless() {
	cm := ac.cm
	fw := cm.serverlessFW()
	if fw == nil {
		return
	}
	id := ac.st.app.ID
	stats, err := fw.FunctionStats(id)
	if err != nil {
		return
	}
	cm.syncFunctionStats(ac.st.rec, stats)
	if ac.st.job.State != framework.JobRunning {
		// Queued or suspended: ticks with demand burn; placement machinery
		// and victim resume own the recovery.
		return
	}

	// Cost-cap throttle: once the metered spend reaches the contracted
	// cap, clamp the autoscaler to a single instance — the function keeps
	// serving (degraded) instead of surprise-billing past the quote.
	c := ac.st.contract
	if c.CostCap > 0 && c.PerInvocation > 0 && stats.Served*c.PerInvocation >= c.CostCap {
		if !ac.capped {
			ac.capped = true
			cm.p.Counters.CostCapThrottles.Inc()
			_ = fw.SetInstanceCap(id, 1)
		}
	}

	ac.sloCovered(stats.Instances >= stats.Target)
}

// sloCovered is the shared tail of the service and function checks.
// When the fleet covers its target, it re-arms the escalation and
// releases idle cloud VMs promptly (scale-in, or an earlier boost
// overshooting, can strand them) rather than at the next completion.
// On a shortfall — the VC's free capacity could not cover the target —
// it asks the Enforcer to intervene (e.g. lease cloud VMs) once per
// pressure episode, before the burn accrues further.
func (ac *AppController) sloCovered(covered bool) {
	cm := ac.cm
	if covered {
		ac.sloArmed = false
		cm.gcIdleCloud()
		return
	}
	if !ac.sloArmed {
		ac.sloArmed = true
		cm.p.Counters.Projected.Inc()
		cm.p.cfg.Enforcer.OnViolation(cm, ac.st.app.ID, true)
	}
}

// desiredReplicas inverts the latency model at the current offered rate:
// the smallest replica count whose utilization keeps the p95 under the
// contracted target (p95 = 3*S0/(1-rho) <= T  =>  rho <= 1 - 3*S0/T),
// with 10% load headroom so the target leads the next tick's drift, and
// the scale-out episodes capped by the negotiation's proposal bound.
func (ac *AppController) desiredReplicas(stats service.Stats) int {
	st := ac.st
	mu := st.job.SvcRate * ac.cm.p.cfg.ConservativeSpeed
	t95 := sim.ToSeconds(st.contract.SLO.TargetP95)
	rhoStar := 1 - 3/mu/t95
	if rhoStar < 0.1 {
		rhoStar = 0.1
	}
	n := int(math.Ceil(1.1 * stats.OfferedRate / (mu * rhoStar)))
	if n < 1 {
		n = 1
	}
	return min(n, maxVMs(st.contract.NumVMs))
}

// stop cancels the monitor. The controller outlives its application in
// the VC's records, so it drops its wake-up callback too.
func (ac *AppController) stop() {
	ac.stopped = true
	ac.timer.Cancel()
	ac.wake = nil
}
