// Package serverless implements a request-driven function framework —
// the fourth hosted framework family after batch, mapreduce and
// service, closing the open-platform gap the paper's §3 extensibility
// argument leaves widest: workloads whose resource footprint is zero
// between requests.
//
// A function job registers for a contracted lifetime (Job.Work seconds
// of wall time) but, unlike a service, launches with zero instances:
// requests arriving while the function is cold buffer in an activation
// queue until an instance finishes booting (Job.ColdStartS seconds
// between node assignment and readiness). The per-tick latency model
// extends the service framework's M/M/1-PS aggregate with a boot-delay
// term: ticks served entirely from the activation queue report the
// remaining boot delay as their p95, so cold starts burn SLO intervals
// exactly like saturation does — the "cold-start charged against the
// SLO" rule the economics layer prices.
//
// Autoscaling is concurrency-based (Knative-shape): each tick the
// framework sizes the fleet to hold Job.ConcTarget in-flight requests
// per warm instance, adds capacity to drain any activation backlog
// within one tick, doubles the fleet under panic (backlog exceeding
// what the warm fleet can hold in flight), and scales to zero after
// Job.IdleWindowS seconds without demand. The instance ceiling is the
// contracted Job.VMs.
//
// Revisions are immutable: a function starts with one revision holding
// all traffic; DeployRevision adds a new revision at weight zero and
// SetTrafficSplit moves traffic between revisions (canary 90/10,
// promote, roll back). Instances are partitioned across revisions by
// largest-remainder quota and per-tick request tallies split by
// weight — both deterministic, no randomness anywhere.
//
// The job table is the one it shares with service (framework.Fleets,
// which embeds the shared node table). Each instance's revision and
// boot completion live on its framework.Instance, and per-revision
// instance counts are derived from them, so the shared removal paths
// need no revision bookkeeping. This package keeps what makes a
// function different: validation and defaults, going cold instead of
// requeueing, launching at zero instances, the latency model, the
// autoscaler and revisions.
package serverless

import (
	"errors"
	"fmt"
	"math"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

// ErrRevision reports an invalid revision or traffic-split operation.
var ErrRevision = errors.New("serverless: invalid revision operation")

// revision is one immutable deployment of a function.
type revision struct {
	name      string
	weight    int // traffic weight; shares are weight / Σ weights
	createdAt sim.Time

	requests   float64 // cumulative requests routed
	coldStarts int
}

// fnState is the framework's own per-function state; the shared
// framework.Fleet holds the rest. SLO intervals are evaluated once per
// tick with demand; idle ticks are vacuously clean and not counted.
type fnState struct {
	cap int // autoscaler ceiling override; 0 = the contracted VMs

	// Activation queue: requests buffered while no warm capacity exists
	// (fluid model, advanced once per tick).
	queue      float64
	lastActive sim.Time // last tick that saw demand
	panicUntil sim.Time // panic-mode expiry; zero when calm

	revs []*revision

	coldStarts  int
	coldDelayS  float64 // total boot delay charged, seconds
	activations int     // scale-from-zero transitions
	zeroScales  int     // scale-to-zero transitions
	served      float64 // cumulative requests served
}

// fleet is one function: the shared job-table entry plus fnState.
type fleet = framework.Fleet[fnState]

// panicFactor and panicTicks tune burst scaling: when the activation
// backlog exceeds panicFactor × ConcTarget × warm instances, the fleet
// doubles and refuses to scale down for panicTicks ticks.
const (
	panicFactor = 2.0
	panicTicks  = 6
)

// Stats is the monitoring view one function exposes to its Application
// Controller and to the experiment harness.
type Stats struct {
	Instances int // current instance count (warm + booting)
	Warm      int // instances past their boot delay
	Target    int // desired instance count

	OfferedRate float64 // requests/s arriving now
	Capacity    float64 // requests/s the warm instances absorb
	QueueDepth  float64 // requests buffered in the activation queue
	P95         float64 // latest per-tick p95 response time [s]
	RollingP95  float64 // max p95 over the rolling window [s]

	Intervals    int // SLO intervals evaluated (ticks with demand)
	Burned       int // intervals with p95 over target (or all-cold)
	PeakReplicas int

	ColdStarts      int     // instance boots
	ColdStartDelayS float64 // total boot delay charged [s]
	Activations     int     // scale-from-zero transitions
	ZeroScales      int     // scale-to-zero transitions
	Served          float64 // cumulative requests served
}

// RevisionStats is the per-revision monitoring view.
type RevisionStats struct {
	Name       string
	Weight     int
	Instances  int
	Requests   float64
	ColdStarts int
	CreatedAtS float64
}

// Config configures a serverless framework instance. Its Tick is the
// evaluation interval: how often arrivals are drained through the fluid
// model, p95 recomputed, burn accounted and the autoscaler stepped
// (default 10 s).
type Config = framework.FleetConfig

// Serverless is the scale-to-zero function framework. It implements
// framework.Framework.
type Serverless struct {
	framework.Fleets[fnState]
}

var _ framework.Framework = (*Serverless)(nil)

// New returns an empty serverless framework.
func New(eng *sim.Engine, cfg Config) *Serverless {
	if cfg.Name == "" {
		cfg.Name = "serverless"
	}
	s := &Serverless{}
	s.Init(eng, cfg, s.onTick)
	return s
}

// AddNode implements framework.Framework. New capacity immediately
// feeds under-target growth (cold starts waiting on nodes).
func (s *Serverless) AddNode(n framework.Node) framework.NodeRef {
	ref := s.Attach(n)
	s.schedule()
	return ref
}

// FailNode implements framework.Framework. Losing an instance — warm or
// still booting — never takes the function down: requests buffer in the
// activation queue and the autoscaler re-boots capacity on the next
// pass. Even the last warm instance crashing only sends the function
// back to cold (an OnScale notification re-opens accounting at the
// smaller node set); there is no requeue path.
func (s *Serverless) FailNode(id string) error {
	f, err := s.DetachInstance(id)
	if err != nil || f == nil {
		return err
	}
	s.Scaled(f)
	s.schedule() // chase the pre-crash target on remaining capacity
	return nil
}

// Submit implements framework.Framework. Function jobs declare an
// instance ceiling (VMs), a per-instance capacity (SvcRate), a lifetime
// in wall seconds (Work) and the serverless shape (ColdStartS,
// ConcTarget, IdleWindowS). The function registers immediately — no
// nodes are required to launch, because it launches cold.
func (s *Serverless) Submit(j *framework.Job) error {
	if j.ID == "" || j.VMs <= 0 || j.Work <= 0 || j.SvcRate <= 0 || j.ColdStartS < 0 {
		return fmt.Errorf("%w: id=%q max=%d lifetime=%g rate=%g cold=%g",
			framework.ErrBadJob, j.ID, j.VMs, j.Work, j.SvcRate, j.ColdStartS)
	}
	f, err := s.Add(j, 0)
	if err != nil {
		return err
	}
	// Defaults apply only once the ID is accepted: a duplicate
	// submission leaves its job untouched.
	if j.ConcTarget <= 0 {
		j.ConcTarget = 1
	}
	if j.IdleWindowS <= 0 {
		j.IdleWindowS = 6 * sim.ToSeconds(s.Tick())
	}
	if j.Revision == "" {
		j.Revision = "rev-1"
	}
	f.X.revs = []*revision{{name: j.Revision, weight: 100, createdAt: s.Now()}}
	s.schedule()
	return nil
}

// Suspend implements framework.Framework. All instances stop, the
// elapsed lifetime is preserved, and the nodes free up. Exists for
// interface completeness and drains — reclaim shrinks functions
// instead.
func (s *Serverless) Suspend(id string) error {
	if err := s.Fleets.Suspend(id); err != nil {
		return err
	}
	s.schedule()
	return nil
}

// Resume implements framework.Framework. The function re-registers
// cold: zero instances, the activation queue intact, demand re-warms
// it.
func (s *Serverless) Resume(id string) error {
	if err := s.Fleets.Resume(id); err != nil {
		return err
	}
	s.schedule()
	return nil
}

// SetTargetInstances overrides the fleet target of a running function —
// the Application Controller's lever, and the only scale path that may
// go to zero explicitly. The per-tick autoscaler keeps steering after
// an override; this pins the fleet until the next tick.
func (s *Serverless) SetTargetInstances(id string, n int) error {
	f, err := s.LookupRunning(id)
	if err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	if n > f.Job.VMs {
		n = f.Job.VMs
	}
	s.retarget(f, n)
	return nil
}

// Shrink reclaims k instances from a running function (bid-driven: the
// Cluster Manager prices this as projected cold-start SLO-burn).
// Private-hosted instances go first — reclaimed capacity must be
// transferable private VMs. At least one instance stays: reclaim never
// forces a warm function fully cold.
func (s *Serverless) Shrink(id string, k int) error {
	f, err := s.Fleets.Shrink(id, k)
	if err != nil {
		return err
	}
	s.rebalance(f)
	s.Scaled(f)
	return nil
}

// DeployRevision adds an immutable revision at traffic weight zero; a
// SetTrafficSplit call moves traffic onto it (the canary step). Valid
// while the function is unsettled; revision names are unique per
// function.
func (s *Serverless) DeployRevision(id, name string) error {
	f, err := s.lookupLive(id)
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("%w: empty revision name", ErrRevision)
	}
	for _, r := range f.X.revs {
		if r.name == name {
			return fmt.Errorf("%w: revision %q already exists for %s", ErrRevision, name, id)
		}
	}
	f.X.revs = append(f.X.revs, &revision{name: name, createdAt: s.Now()})
	return nil
}

// SetTrafficSplit reassigns traffic weights across a function's
// revisions. Every named revision must exist, weights are non-negative
// and must sum positive; revisions not named drop to zero. Instances
// repartition to the new quotas immediately — an instance flipped to a
// different revision re-boots (a cold start on the new revision's
// image), which is what makes an aggressive canary visible in the
// latency accounting.
func (s *Serverless) SetTrafficSplit(id string, weights map[string]int) error {
	f, err := s.lookupLive(id)
	if err != nil {
		return err
	}
	total := 0
	for name, w := range weights {
		if w < 0 {
			return fmt.Errorf("%w: negative weight %d for %q", ErrRevision, w, name)
		}
		found := false
		for _, r := range f.X.revs {
			if r.name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: unknown revision %q for %s", ErrRevision, name, id)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("%w: traffic weights sum to zero", ErrRevision)
	}
	for _, r := range f.X.revs {
		r.weight = weights[r.name]
	}
	s.rebalance(f)
	return nil
}

// Revisions returns the per-revision monitoring view in deploy order.
func (s *Serverless) Revisions(id string) ([]RevisionStats, error) {
	f, err := s.Lookup(id)
	if err != nil {
		return nil, err
	}
	out := make([]RevisionStats, len(f.X.revs))
	for i, r := range f.X.revs {
		out[i] = RevisionStats{
			Name:       r.name,
			Weight:     r.weight,
			Requests:   r.requests,
			ColdStarts: r.coldStarts,
			CreatedAtS: sim.ToSeconds(r.createdAt),
		}
	}
	for _, in := range f.Insts {
		out[in.Rev].Instances++
	}
	return out, nil
}

// FunctionStats returns the monitoring view for one function.
func (s *Serverless) FunctionStats(id string) (Stats, error) {
	f, err := s.Lookup(id)
	if err != nil {
		return Stats{}, err
	}
	out := Stats{
		Instances:       len(f.Insts),
		Target:          f.Target,
		QueueDepth:      f.X.queue,
		RollingP95:      f.RollingP95(),
		Intervals:       f.Intervals,
		Burned:          f.Burned,
		PeakReplicas:    f.PeakReplicas,
		ColdStarts:      f.X.coldStarts,
		ColdStartDelayS: f.X.coldDelayS,
		Activations:     f.X.activations,
		ZeroScales:      f.X.zeroScales,
		Served:          f.X.served,
	}
	if f.Job.State == framework.JobRunning {
		now := s.Now()
		warmN, warmCap := s.warmCapacity(f, now)
		out.Warm = warmN
		out.Capacity = warmCap
		out.OfferedRate = f.OfferedRate(now)
		out.P95 = s.p95(f, out.OfferedRate, warmN, warmCap, now)
	}
	return out, nil
}

// --- internals ---

// lookupLive looks up a function that is not done — the functions whose
// revisions may still change.
func (s *Serverless) lookupLive(id string) (*fleet, error) {
	f, err := s.Lookup(id)
	if err != nil {
		return nil, err
	}
	if f.Job.State == framework.JobDone {
		return nil, fmt.Errorf("%w: %s is done", framework.ErrJobState, id)
	}
	return f, nil
}

// warmCapacity counts instances past their boot delay and sums their
// service rates.
func (s *Serverless) warmCapacity(f *fleet, now sim.Time) (int, float64) {
	n, c := 0, 0.0
	for _, in := range f.Insts {
		if in.WarmAt <= now {
			n++
			c += f.Job.SvcRate * in.Node.SpeedFactor
		}
	}
	return n, c
}

// earliestWarm returns the soonest readiness time among booting
// instances, or false when none is booting.
func earliestWarm(f *fleet, now sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, in := range f.Insts {
		if in.WarmAt > now && (!found || in.WarmAt < best) {
			best = in.WarmAt
			found = true
		}
	}
	return best, found
}

// p95 evaluates the latency model at the current instant: the service
// framework's M/M/1-PS aggregate over the *warm* instance set, extended
// with a boot-delay term. Ticks with demand but no warm capacity report
// the remaining boot delay of the earliest booting instance plus the
// base sojourn — requests wait in the activation queue for exactly that
// long — or +Inf when nothing is booting (cold with no capacity on the
// way within this tick).
func (s *Serverless) p95(f *fleet, lambda float64, warmN int, warmCap float64, now sim.Time) float64 {
	demand := lambda > 0 || f.X.queue > 0
	if warmCap <= 0 {
		if !demand {
			return 0
		}
		if at, ok := earliestWarm(f, now); ok {
			return sim.ToSeconds(at-now) + 3.0/f.Job.SvcRate
		}
		return math.Inf(1)
	}
	rho := lambda / warmCap
	if rho >= 1 {
		return math.Inf(1)
	}
	s0 := float64(warmN) / warmCap
	return 3 * s0 / (1 - rho)
}

// onTick advances the fluid request model, SLO accounting and the
// autoscaler for every running function, in submission order. Suspended
// functions with demand burn outright (they are down).
func (s *Serverless) onTick() {
	now := s.Now()
	tickS := sim.ToSeconds(s.Tick())
	for _, f := range s.Active.Values() {
		s.step(f, now, tickS)
	}
	s.VisitSuspended(func(f *fleet) {
		if f.OfferedRate(now) > 0 {
			f.Down()
		}
	})
}

// step advances one running function by one tick: drain arrivals
// through the warm fleet, account the SLO, then steer the fleet.
func (s *Serverless) step(f *fleet, now sim.Time, tickS float64) {
	lambda := f.OfferedRate(now)
	arrivals := lambda * tickS
	demand := arrivals + f.X.queue
	warmN, warmCap := s.warmCapacity(f, now)

	// Evaluate the latency model before serving: the p95 reflects the
	// state requests arriving this tick experience.
	p := s.p95(f, lambda, warmN, warmCap, now)
	if demand > 0 {
		f.Record(p)
	}

	// Fluid drain: warm capacity serves the backlog plus arrivals.
	served := demand
	if lim := warmCap * tickS; served > lim {
		served = lim
	}
	f.X.queue = demand - served
	if f.X.queue < 1e-9 {
		f.X.queue = 0
	}
	if served > 0 {
		f.X.served += served
		f.X.tally(served)
	}
	if demand > 0 {
		f.X.lastActive = now
	}

	s.autoscale(f, lambda, demand, warmN, now, tickS)
}

// tally splits served requests across revisions by traffic weight.
func (st *fnState) tally(served float64) {
	total := 0
	for _, r := range st.revs {
		total += r.weight
	}
	if total <= 0 {
		return
	}
	for _, r := range st.revs {
		if r.weight > 0 {
			r.requests += served * float64(r.weight) / float64(total)
		}
	}
}

// autoscale is the per-tick concurrency autoscaler. Demand sizing uses
// Little's law: holding ConcTarget requests in flight per M/M/1-PS
// instance means running each at utilization ConcTarget/(1+ConcTarget),
// so the calm fleet is ceil(λ / (μ·u*)) plus whatever drains the
// activation backlog within one tick. Panic mode doubles the fleet and
// holds the floor while it lasts; an idle window scales to zero.
func (s *Serverless) autoscale(f *fleet, lambda, demand float64, warmN int, now sim.Time, tickS float64) {
	j, st := f.Job, &f.X
	cur := len(f.Insts)
	desired := 0
	if demand > 0 {
		mu := j.SvcRate
		uStar := j.ConcTarget / (1 + j.ConcTarget)
		desired = int(math.Ceil(lambda / (mu * uStar)))
		if st.queue > 0 {
			desired += int(math.Ceil(st.queue / (mu * tickS)))
		}
		if desired < 1 {
			desired = 1
		}
		// Panic: the backlog exceeds what the warm fleet can hold in
		// flight — double immediately and refuse to scale down.
		hold := float64(warmN) * j.ConcTarget
		if warmN == 0 {
			hold = j.ConcTarget
		}
		if st.queue > panicFactor*hold {
			st.panicUntil = now + panicTicks*s.Tick()
		}
		if now < st.panicUntil {
			if 2*cur > desired {
				desired = 2 * cur
			}
			if desired < 1 {
				desired = 1
			}
		}
		if cur == 0 && f.Target == 0 && desired > 0 {
			st.activations++ // scale-from-zero transition, once per episode
		}
	} else if cur > 0 {
		if now-st.lastActive >= sim.Seconds(j.IdleWindowS) {
			desired = 0 // scale to zero
			st.zeroScales++
			st.panicUntil = 0
		} else {
			desired = cur // hold through the idle window
		}
	}
	if desired > j.VMs {
		desired = j.VMs
	}
	if st.cap > 0 && desired > st.cap {
		desired = st.cap
	}
	s.retarget(f, desired)
}

// SetInstanceCap clamps a function's autoscaler below the contracted
// ceiling — the Application Controller's cost-cap throttle. The cap
// holds until changed (0 removes it); an over-cap fleet shrinks
// immediately.
func (s *Serverless) SetInstanceCap(id string, n int) error {
	f, err := s.Lookup(id)
	if err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	f.X.cap = n
	if f.Job.State == framework.JobRunning && n > 0 && len(f.Insts) > n {
		s.retarget(f, n)
	}
	return nil
}

// retarget moves the fleet toward n: shrink releases newest-first
// immediately, growth goes through the scheduler as free nodes allow.
func (s *Serverless) retarget(f *fleet, n int) {
	f.Target = n
	if n < len(f.Insts) {
		s.ReleaseNewest(f, len(f.Insts)-n)
		s.rebalance(f)
		s.Scaled(f)
		return
	}
	if n > len(f.Insts) {
		s.schedule()
	}
}

// grow boots up to k instances on free nodes and returns how many it
// got. Every assignment is a cold start: the instance serves nothing
// until ColdStartS elapses, and the boot delay is charged to the
// function and to the revision the instance joins.
func (s *Serverless) grow(f *fleet, k int) int {
	from := len(f.Insts)
	got := s.Grow(f, k)
	warmAt := s.Now() + sim.Seconds(f.Job.ColdStartS)
	for i := from; i < len(f.Insts); i++ {
		rev := f.X.neediestRev(f.Insts[:i])
		f.Insts[i].Rev, f.Insts[i].WarmAt = rev, warmAt
		f.X.revs[rev].coldStarts++
		f.X.coldStarts++
		f.X.coldDelayS += f.Job.ColdStartS
	}
	return got
}

// quotas partitions n instances across revisions by traffic weight,
// largest remainder, ties to the older revision — deterministic.
func (st *fnState) quotas(n int) []int {
	out := make([]int, len(st.revs))
	total := 0
	for _, r := range st.revs {
		total += r.weight
	}
	if total <= 0 || n <= 0 {
		return out
	}
	assigned := 0
	type frac struct {
		idx int
		rem int
	}
	fracs := make([]frac, 0, len(st.revs))
	for i, r := range st.revs {
		q := n * r.weight
		out[i] = q / total
		assigned += out[i]
		fracs = append(fracs, frac{idx: i, rem: q % total})
	}
	for left := n - assigned; left > 0; left-- {
		best := -1
		for _, f := range fracs {
			// Zero-weight revisions never round up: a revision with no
			// traffic holds no instances.
			if st.revs[f.idx].weight == 0 {
				continue
			}
			if best < 0 || f.rem > fracs[best].rem {
				best = f.idx
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		fracs[best].rem = -1
	}
	return out
}

// neediestRev picks the revision with the largest quota deficit for the
// fleet insts plus one instance — where the next instance belongs.
func (st *fnState) neediestRev(insts []framework.Instance) int {
	need := st.quotas(len(insts) + 1)
	for _, in := range insts {
		need[in.Rev]--
	}
	best, bestDeficit := 0, math.MinInt32
	for i, d := range need {
		if d > bestDeficit {
			best, bestDeficit = i, d
		}
	}
	return best
}

// rebalance repartitions existing instances to the current quotas after
// a traffic-split change or shrink: over-quota revisions yield their
// newest instances to under-quota ones. A flipped instance re-boots on
// the new revision's image — a cold start charged like any other.
func (s *Serverless) rebalance(f *fleet) {
	st := &f.X
	need := st.quotas(len(f.Insts))
	for _, in := range f.Insts {
		need[in.Rev]--
	}
	now := s.Now()
	for i := range need {
		for need[i] > 0 {
			donor := -1
			for d := range need {
				if need[d] < 0 {
					donor = d
					break
				}
			}
			if donor < 0 {
				return
			}
			// Newest instance of the donor revision flips.
			for k := len(f.Insts) - 1; k >= 0; k-- {
				in := &f.Insts[k]
				if in.Rev != donor {
					continue
				}
				need[donor]++
				in.Rev = i
				in.WarmAt = now + sim.Seconds(f.Job.ColdStartS)
				need[i]--
				st.revs[i].coldStarts++
				st.coldStarts++
				st.coldDelayS += f.Job.ColdStartS
				break
			}
		}
	}
}

// schedule registers waiting functions (no capacity needed — they
// launch cold), then grows running fleets toward their targets in
// submission order.
func (s *Serverless) schedule() {
	for s.Queue.Len() > 0 {
		f := s.Queue.PopFront()
		f.X.lastActive = s.Now()
		s.Begin(f, func() { s.finish(f) })
	}
	for _, f := range s.Active.Values() {
		if s.FreeLen() == 0 {
			break
		}
		if want := f.Target - len(f.Insts); want > 0 {
			if s.grow(f, want) > 0 {
				s.Scaled(f)
			}
		}
	}
}

// finish settles a function whose contracted lifetime elapsed.
func (s *Serverless) finish(f *fleet) {
	s.End(f)
	s.schedule()
}
