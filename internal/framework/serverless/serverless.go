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
// Scheduler state is indexed exactly like batch and service: the node
// table is the shared dedicated-node table (framework.Nodes), the wait
// queue is a ring deque, and the running set is a maintained
// submission-ordered SeqSet.
package serverless

import (
	"errors"
	"fmt"
	"math"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

// Errors returned by the serverless framework.
var (
	ErrJobExists  = errors.New("serverless: job already submitted")
	ErrJobUnknown = errors.New("serverless: unknown job")
	ErrJobState   = errors.New("serverless: job is not in a valid state for this operation")
	ErrBadJob     = errors.New("serverless: invalid job description")
	ErrRevision   = errors.New("serverless: invalid revision operation")
)

// instance is one function instance: the node hosting it, the revision
// it runs and when its boot finishes.
type instance struct {
	node   string
	rev    int // index into fnState.revs
	warmAt sim.Time
}

// revision is one immutable deployment of a function.
type revision struct {
	name      string
	weight    int // traffic weight; shares are weight / Σ weights
	createdAt sim.Time

	instances  int     // current instances pinned to this revision
	requests   float64 // cumulative requests routed
	coldStarts int
}

// fnState is the framework's per-function bookkeeping.
type fnState struct {
	job *framework.Job
	seq uint64 // submission order

	target int        // desired instances; schedule() grows toward it
	cap    int        // autoscaler ceiling override; 0 = the contracted VMs
	insts  []instance // in assignment order

	startedAt sim.Time  // current execution segment start
	finish    sim.Timer // fires when the remaining lifetime elapses

	// Activation queue: requests buffered while no warm capacity exists
	// (fluid model, advanced once per tick).
	queue      float64
	lastActive sim.Time // last tick that saw demand
	panicUntil sim.Time // panic-mode expiry; zero when calm

	revs []*revision

	// SLO accounting, advanced once per evaluated tick (ticks with
	// demand; idle ticks are vacuously clean and not counted).
	intervals int
	burned    int
	window    [rollingWindow]float64
	windowN   int

	peakReplicas int
	coldStarts   int
	coldDelayS   float64 // total boot delay charged, seconds
	activations  int     // scale-from-zero transitions
	zeroScales   int     // scale-to-zero transitions
	served       float64 // cumulative requests served
}

// rollingWindow matches the service framework: enough per-tick p95
// history to smooth one-tick blips without hiding a building burst.
const rollingWindow = 6

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

// Config configures a serverless framework instance.
type Config struct {
	Name   string
	Image  string
	Events framework.Events

	// Tick is the evaluation interval: how often arrivals are drained
	// through the fluid model, p95 recomputed, burn accounted and the
	// autoscaler stepped (default 10 s).
	Tick sim.Time
}

// Serverless is the scale-to-zero function framework. It implements
// framework.Framework.
type Serverless struct {
	framework.Nodes

	eng *sim.Engine
	cfg Config

	jobs   map[string]*fnState
	jobSeq uint64
	queue  framework.Deque[string] // functions waiting to register (transient)

	running framework.SeqSet[*framework.Job]
	states  framework.SeqSet[*fnState]

	unsettled int
	tick      sim.Timer
}

var _ framework.Framework = (*Serverless)(nil)
var _ framework.Inspector = (*Serverless)(nil)

// New returns an empty serverless framework.
func New(eng *sim.Engine, cfg Config) *Serverless {
	if cfg.Name == "" {
		cfg.Name = "serverless"
	}
	if cfg.Image == "" {
		cfg.Image = cfg.Name + ".img"
	}
	if cfg.Tick <= 0 {
		cfg.Tick = sim.Seconds(10)
	}
	return &Serverless{
		eng:  eng,
		cfg:  cfg,
		jobs: make(map[string]*fnState),
	}
}

// Name implements framework.Framework.
func (s *Serverless) Name() string { return s.cfg.Name }

// Image implements framework.Framework.
func (s *Serverless) Image() string { return s.cfg.Image }

// Tick returns the evaluation interval.
func (s *Serverless) Tick() sim.Time { return s.cfg.Tick }

// AddNode implements framework.Framework. New capacity immediately
// feeds under-target growth (cold starts waiting on nodes).
func (s *Serverless) AddNode(n framework.Node) {
	s.Attach(n)
	s.schedule()
}

// FailNode implements framework.Framework. Losing an instance — warm or
// still booting — never takes the function down: requests buffer in the
// activation queue and the autoscaler re-boots capacity on the next
// pass. Even the last warm instance crashing only sends the function
// back to cold (an OnScale notification re-opens accounting at the
// smaller node set); there is no requeue path.
func (s *Serverless) FailNode(id string) error {
	jobID, err := s.Detach(id)
	if err != nil || jobID == "" {
		return err
	}
	st := s.jobs[jobID]
	for i, in := range st.insts {
		if in.node == id {
			st.revs[in.rev].instances--
			st.insts = append(st.insts[:i], st.insts[i+1:]...)
			break
		}
	}
	st.job.Replicas = len(st.insts)
	if s.cfg.Events.OnScale != nil {
		s.cfg.Events.OnScale(st.job)
	}
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
			ErrBadJob, j.ID, j.VMs, j.Work, j.SvcRate, j.ColdStartS)
	}
	if _, dup := s.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %s", ErrJobExists, j.ID)
	}
	if j.ConcTarget <= 0 {
		j.ConcTarget = 1
	}
	if j.IdleWindowS <= 0 {
		j.IdleWindowS = 6 * sim.ToSeconds(s.cfg.Tick)
	}
	if j.Revision == "" {
		j.Revision = "rev-1"
	}
	j.State = framework.JobQueued
	j.SubmittedAt = s.eng.Now()
	j.Replicas = 0
	st := &fnState{
		job:  j,
		seq:  s.jobSeq,
		revs: []*revision{{name: j.Revision, weight: 100, createdAt: s.eng.Now()}},
	}
	s.jobSeq++
	s.jobs[j.ID] = st
	s.queue.PushBack(j.ID)
	s.unsettled++
	s.ensureTicker()
	s.schedule()
	return nil
}

// Suspend implements framework.Framework. All instances stop, the
// elapsed lifetime is preserved, and the nodes free up. Exists for
// interface completeness and drains — reclaim shrinks functions
// instead.
func (s *Serverless) Suspend(id string) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	j := st.job
	if j.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, j.State)
	}
	st.finish.Cancel()
	s.accrueLifetime(st)
	s.releaseAll(st)
	st.target = 0
	j.Replicas = 0
	j.State = framework.JobSuspended
	j.Suspensions++
	s.running.Remove(st.seq)
	s.states.Remove(st.seq)
	if s.cfg.Events.OnSuspend != nil {
		s.cfg.Events.OnSuspend(j)
	}
	s.schedule()
	return nil
}

// Resume implements framework.Framework. The function re-registers
// cold: zero instances, the activation queue intact, demand re-warms
// it.
func (s *Serverless) Resume(id string) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	j := st.job
	if j.State != framework.JobSuspended {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, j.State)
	}
	j.State = framework.JobQueued
	st.target = 0
	s.queue.PushFront(id)
	if s.cfg.Events.OnResume != nil {
		s.cfg.Events.OnResume(j)
	}
	s.schedule()
	return nil
}

// JobNodes implements framework.Framework.
func (s *Serverless) JobNodes(id string) ([]string, error) {
	st, ok := s.jobs[id]
	if !ok || st.job.State != framework.JobRunning {
		return nil, fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	out := make([]string, len(st.insts))
	for i, in := range st.insts {
		out[i] = in.node
	}
	return out, nil
}

// VisitJobNodes implements framework.Framework: assignment order. A
// cold running function visits nothing — zero instances, zero usage.
func (s *Serverless) VisitJobNodes(id string, visit func(id string) bool) error {
	st, ok := s.jobs[id]
	if !ok || st.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	for _, in := range st.insts {
		if !visit(in.node) {
			return nil
		}
	}
	return nil
}

// Progress implements framework.Framework: elapsed lifetime over
// contracted lifetime.
func (s *Serverless) Progress(id string) (float64, error) {
	st, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	j := st.job
	done := j.DoneWork
	if j.State == framework.JobRunning {
		done += sim.ToSeconds(s.eng.Now() - st.startedAt)
	}
	p := done / j.Work
	if p > 1 {
		p = 1
	}
	return p, nil
}

// Get implements framework.Framework.
func (s *Serverless) Get(id string) (*framework.Job, bool) {
	st, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return st.job, true
}

// Running implements framework.Framework.
func (s *Serverless) Running() []*framework.Job { return s.running.Values() }

// QueuedJobs implements framework.Framework. Functions register
// immediately, so the queue is transient; this exists for the
// interface.
func (s *Serverless) QueuedJobs() []*framework.Job {
	out := make([]*framework.Job, 0, s.queue.Len())
	for i := 0; i < s.queue.Len(); i++ {
		out = append(out, s.jobs[s.queue.At(i)].job)
	}
	return out
}

// SetTargetInstances overrides the fleet target of a running function —
// the Application Controller's lever, and the only scale path that may
// go to zero explicitly. The per-tick autoscaler keeps steering after
// an override; this pins the fleet until the next tick.
func (s *Serverless) SetTargetInstances(id string, n int) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if st.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, st.job.State)
	}
	if n < 0 {
		n = 0
	}
	if n > st.job.VMs {
		n = st.job.VMs
	}
	s.retarget(st, n)
	return nil
}

// Shrink reclaims k instances from a running function (bid-driven: the
// Cluster Manager prices this as projected cold-start SLO-burn).
// Private-hosted instances go first — reclaimed capacity must be
// transferable private VMs. At least one instance stays: reclaim never
// forces a warm function fully cold.
func (s *Serverless) Shrink(id string, k int) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if st.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, st.job.State)
	}
	if k <= 0 || k > len(st.insts)-1 {
		return fmt.Errorf("%w: shrink %s by %d with %d instances", ErrJobState, id, k, len(st.insts))
	}
	for pass := 0; pass < 2 && k > 0; pass++ {
		wantCloud := pass == 1
		for i := len(st.insts) - 1; i >= 0 && k > 0; i-- {
			in := st.insts[i]
			if s.Node(in.node).Cloud != wantCloud {
				continue
			}
			st.revs[in.rev].instances--
			st.insts = append(st.insts[:i], st.insts[i+1:]...)
			s.Release(in.node)
			k--
		}
	}
	st.job.Replicas = len(st.insts)
	st.target = len(st.insts)
	s.rebalance(st)
	if s.cfg.Events.OnScale != nil {
		s.cfg.Events.OnScale(st.job)
	}
	return nil
}

// ReplicaKinds counts a running function's instance hosts by kind —
// what a reclaim bid checks before promising transferable private VMs.
func (s *Serverless) ReplicaKinds(id string) (private, cloud int, err error) {
	st, ok := s.jobs[id]
	if !ok || st.job.State != framework.JobRunning {
		return 0, 0, fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	for _, in := range st.insts {
		if s.Node(in.node).Cloud {
			cloud++
		} else {
			private++
		}
	}
	return private, cloud, nil
}

// TargetInstances returns a function's current fleet target.
func (s *Serverless) TargetInstances(id string) (int, error) {
	st, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	return st.target, nil
}

// DeployRevision adds an immutable revision at traffic weight zero; a
// SetTrafficSplit call moves traffic onto it (the canary step). Valid
// while the function is unsettled; revision names are unique per
// function.
func (s *Serverless) DeployRevision(id, name string) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if st.job.State == framework.JobDone {
		return fmt.Errorf("%w: %s is done", ErrJobState, id)
	}
	if name == "" {
		return fmt.Errorf("%w: empty revision name", ErrRevision)
	}
	for _, r := range st.revs {
		if r.name == name {
			return fmt.Errorf("%w: revision %q already exists for %s", ErrRevision, name, id)
		}
	}
	st.revs = append(st.revs, &revision{name: name, createdAt: s.eng.Now()})
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
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if st.job.State == framework.JobDone {
		return fmt.Errorf("%w: %s is done", ErrJobState, id)
	}
	total := 0
	for name, w := range weights {
		if w < 0 {
			return fmt.Errorf("%w: negative weight %d for %q", ErrRevision, w, name)
		}
		found := false
		for _, r := range st.revs {
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
	for _, r := range st.revs {
		r.weight = weights[r.name]
	}
	s.rebalance(st)
	return nil
}

// Revisions returns the per-revision monitoring view in deploy order.
func (s *Serverless) Revisions(id string) ([]RevisionStats, error) {
	st, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	out := make([]RevisionStats, len(st.revs))
	for i, r := range st.revs {
		out[i] = RevisionStats{
			Name:       r.name,
			Weight:     r.weight,
			Instances:  r.instances,
			Requests:   r.requests,
			ColdStarts: r.coldStarts,
			CreatedAtS: sim.ToSeconds(r.createdAt),
		}
	}
	return out, nil
}

// FunctionStats returns the monitoring view for one function.
func (s *Serverless) FunctionStats(id string) (Stats, error) {
	st, ok := s.jobs[id]
	if !ok {
		return Stats{}, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	out := Stats{
		Instances:       len(st.insts),
		Target:          st.target,
		QueueDepth:      st.queue,
		Intervals:       st.intervals,
		Burned:          st.burned,
		PeakReplicas:    st.peakReplicas,
		ColdStarts:      st.coldStarts,
		ColdStartDelayS: st.coldDelayS,
		Activations:     st.activations,
		ZeroScales:      st.zeroScales,
		Served:          st.served,
	}
	if st.job.State == framework.JobRunning {
		now := s.eng.Now()
		warmN, warmCap := s.warmCapacity(st, now)
		out.Warm = warmN
		out.Capacity = warmCap
		out.OfferedRate = offeredRate(st.job, now)
		out.P95 = s.p95(st, out.OfferedRate, warmN, warmCap, now)
	}
	n := st.windowN
	if n > len(st.window) {
		n = len(st.window)
	}
	for i := 0; i < n; i++ {
		if st.window[i] > out.RollingP95 {
			out.RollingP95 = st.window[i]
		}
	}
	return out, nil
}

// --- internals ---

// offeredRate samples the open-loop arrival process.
func offeredRate(j *framework.Job, t sim.Time) float64 {
	if j.Rate == nil {
		return 0
	}
	r := j.Rate(t)
	if r < 0 {
		return 0
	}
	return r
}

// warmCapacity counts instances past their boot delay and sums their
// service rates.
func (s *Serverless) warmCapacity(st *fnState, now sim.Time) (int, float64) {
	n, c := 0, 0.0
	for _, in := range st.insts {
		if in.warmAt <= now {
			n++
			c += st.job.SvcRate * s.Node(in.node).SpeedFactor
		}
	}
	return n, c
}

// earliestWarm returns the soonest readiness time among booting
// instances, or false when none is booting.
func (s *Serverless) earliestWarm(st *fnState, now sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, in := range st.insts {
		if in.warmAt > now && (!found || in.warmAt < best) {
			best = in.warmAt
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
func (s *Serverless) p95(st *fnState, lambda float64, warmN int, warmCap float64, now sim.Time) float64 {
	demand := lambda > 0 || st.queue > 0
	if warmCap <= 0 {
		if !demand {
			return 0
		}
		if at, ok := s.earliestWarm(st, now); ok {
			return sim.ToSeconds(at-now) + 3.0/st.job.SvcRate
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

// ensureTicker starts the evaluation ticker while unsettled functions
// exist; onTick cancels it when the last one settles.
func (s *Serverless) ensureTicker() {
	if s.tick.Active() || s.unsettled == 0 {
		return
	}
	s.tick = s.eng.Every(s.cfg.Tick, s.onTick)
}

// onTick advances the fluid request model, SLO accounting and the
// autoscaler for every running function, in submission order. Suspended
// functions with demand burn outright (they are down).
func (s *Serverless) onTick() {
	if s.unsettled == 0 {
		s.tick.Cancel()
		return
	}
	now := s.eng.Now()
	tickS := sim.ToSeconds(s.cfg.Tick)
	for _, st := range s.states.Values() {
		s.stepFn(st, now, tickS)
	}
	// Suspended functions: down; ticks with offered demand burn. Only
	// counters advance, so the map-order scan cannot leak into results.
	for _, st := range s.jobs {
		if st.job.State == framework.JobSuspended && offeredRate(st.job, now) > 0 {
			st.intervals++
			st.burned++
		}
	}
}

// stepFn advances one running function by one tick: drain arrivals
// through the warm fleet, account the SLO, then steer the fleet.
func (s *Serverless) stepFn(st *fnState, now sim.Time, tickS float64) {
	j := st.job
	lambda := offeredRate(j, now)
	arrivals := lambda * tickS
	demand := arrivals + st.queue
	warmN, warmCap := s.warmCapacity(st, now)

	// Evaluate the latency model before serving: the p95 reflects the
	// state requests arriving this tick experience.
	p := s.p95(st, lambda, warmN, warmCap, now)
	if demand > 0 {
		st.window[st.windowN%len(st.window)] = p
		st.windowN++
		st.intervals++
		if j.TargetP95 > 0 && (math.IsInf(p, 1) || p > j.TargetP95) {
			st.burned++
		}
	}

	// Fluid drain: warm capacity serves the backlog plus arrivals.
	served := demand
	if lim := warmCap * tickS; served > lim {
		served = lim
	}
	st.queue = demand - served
	if st.queue < 1e-9 {
		st.queue = 0
	}
	if served > 0 {
		st.served += served
		s.tally(st, served)
	}
	if demand > 0 {
		st.lastActive = now
	}

	s.autoscale(st, lambda, demand, warmN, now, tickS)
}

// tally splits served requests across revisions by traffic weight.
func (s *Serverless) tally(st *fnState, served float64) {
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
func (s *Serverless) autoscale(st *fnState, lambda, demand float64, warmN int, now sim.Time, tickS float64) {
	j := st.job
	cur := len(st.insts)
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
			st.panicUntil = now + panicTicks*s.cfg.Tick
		}
		if now < st.panicUntil {
			if 2*cur > desired {
				desired = 2 * cur
			}
			if desired < 1 {
				desired = 1
			}
		}
		if cur == 0 && st.target == 0 && desired > 0 {
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
	s.retarget(st, desired)
}

// SetInstanceCap clamps a function's autoscaler below the contracted
// ceiling — the Application Controller's cost-cap throttle. The cap
// holds until changed (0 removes it); an over-cap fleet shrinks
// immediately.
func (s *Serverless) SetInstanceCap(id string, n int) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if n < 0 {
		n = 0
	}
	st.cap = n
	if st.job.State == framework.JobRunning && n > 0 && len(st.insts) > n {
		s.retarget(st, n)
	}
	return nil
}

// retarget moves the fleet toward n: shrink releases newest-first
// immediately, growth goes through the scheduler as free nodes allow.
func (s *Serverless) retarget(st *fnState, n int) {
	st.target = n
	if n < len(st.insts) {
		s.releaseInstances(st, len(st.insts)-n)
		s.rebalance(st)
		if s.cfg.Events.OnScale != nil {
			s.cfg.Events.OnScale(st.job)
		}
		return
	}
	if n > len(st.insts) {
		s.schedule()
	}
}

// accrueLifetime banks the elapsed wall time of the current execution
// segment into DoneWork.
func (s *Serverless) accrueLifetime(st *fnState) {
	j := st.job
	j.DoneWork += sim.ToSeconds(s.eng.Now() - st.startedAt)
	if j.DoneWork > j.Work {
		j.DoneWork = j.Work
	}
}

// releaseAll frees every instance of a function.
func (s *Serverless) releaseAll(st *fnState) {
	for _, in := range st.insts {
		s.Release(in.node)
	}
	st.insts = nil
	for _, r := range st.revs {
		r.instances = 0
	}
}

// releaseInstances frees k instances, newest assignment first.
func (s *Serverless) releaseInstances(st *fnState, k int) {
	for ; k > 0 && len(st.insts) > 0; k-- {
		in := st.insts[len(st.insts)-1]
		st.insts = st.insts[:len(st.insts)-1]
		st.revs[in.rev].instances--
		s.Release(in.node)
	}
	st.job.Replicas = len(st.insts)
}

// assignInstances attaches up to k free nodes as booting instances,
// attach order, and returns how many it got. Every assignment is a cold
// start: the instance serves nothing until ColdStartS elapses, and the
// boot delay is charged to the function and its revision.
func (s *Serverless) assignInstances(st *fnState, k int) int {
	got := 0
	now := s.eng.Now()
	for ; k > 0; k-- {
		n, ok := s.Take(st.job.ID)
		if !ok {
			break
		}
		rev := s.neediestRev(st)
		st.revs[rev].instances++
		st.revs[rev].coldStarts++
		st.coldStarts++
		st.coldDelayS += st.job.ColdStartS
		st.insts = append(st.insts, instance{node: n.ID, rev: rev, warmAt: now + sim.Seconds(st.job.ColdStartS)})
		got++
	}
	st.job.Replicas = len(st.insts)
	if st.job.Replicas > st.peakReplicas {
		st.peakReplicas = st.job.Replicas
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
// fleet one instance larger — where the next instance belongs.
func (s *Serverless) neediestRev(st *fnState) int {
	q := st.quotas(len(st.insts) + 1)
	best, bestDeficit := 0, math.MinInt32
	for i, r := range st.revs {
		if d := q[i] - r.instances; d > bestDeficit {
			best, bestDeficit = i, d
		}
	}
	return best
}

// rebalance repartitions existing instances to the current quotas after
// a traffic-split change or shrink: over-quota revisions yield their
// newest instances to under-quota ones. A flipped instance re-boots on
// the new revision's image — a cold start charged like any other.
func (s *Serverless) rebalance(st *fnState) {
	q := st.quotas(len(st.insts))
	now := s.eng.Now()
	for i := range st.revs {
		for st.revs[i].instances < q[i] {
			donor := -1
			for d := range st.revs {
				if st.revs[d].instances > q[d] {
					donor = d
					break
				}
			}
			if donor < 0 {
				return
			}
			// Newest instance of the donor revision flips.
			for k := len(st.insts) - 1; k >= 0; k-- {
				in := &st.insts[k]
				if in.rev != donor {
					continue
				}
				st.revs[donor].instances--
				in.rev = i
				in.warmAt = now + sim.Seconds(st.job.ColdStartS)
				st.revs[i].instances++
				st.revs[i].coldStarts++
				st.coldStarts++
				st.coldDelayS += st.job.ColdStartS
				break
			}
		}
	}
}

// schedule registers waiting functions (no capacity needed — they
// launch cold), then grows running fleets toward their targets in
// submission order.
func (s *Serverless) schedule() {
	for s.queue.Len() > 0 {
		st := s.jobs[s.queue.At(0)]
		s.queue.RemoveAt(0)
		s.start(st)
	}
	for _, st := range s.states.Values() {
		if s.FreeLen() == 0 {
			break
		}
		if want := st.target - len(st.insts); want > 0 {
			if s.assignInstances(st, want) > 0 && s.cfg.Events.OnScale != nil {
				s.cfg.Events.OnScale(st.job)
			}
		}
	}
}

// start registers a function: running, cold, zero instances. The first
// tick with demand activates it.
func (s *Serverless) start(st *fnState) {
	j := st.job
	now := s.eng.Now()
	if !j.Started {
		j.Started = true
		j.StartedAt = now
	}
	j.State = framework.JobRunning
	st.startedAt = now
	st.lastActive = now
	s.running.Insert(st.seq, j)
	s.states.Insert(st.seq, st)
	remaining := j.Work - j.DoneWork
	st.finish = s.eng.After(sim.Seconds(remaining), func() { s.finishFn(st) })
	if s.cfg.Events.OnStart != nil {
		s.cfg.Events.OnStart(j)
	}
}

// finishFn settles a function whose contracted lifetime elapsed.
func (s *Serverless) finishFn(st *fnState) {
	j := st.job
	j.State = framework.JobDone
	j.DoneWork = j.Work
	j.FinishedAt = s.eng.Now()
	s.releaseAll(st)
	s.running.Remove(st.seq)
	s.states.Remove(st.seq)
	s.unsettled--
	if s.unsettled == 0 {
		s.tick.Cancel()
	}
	if s.cfg.Events.OnFinish != nil {
		s.cfg.Events.OnFinish(j)
	}
	s.schedule()
}
