package framework

import (
	"fmt"

	"meryn/internal/sim"
)

// FleetConfig configures a fleet framework instance (service,
// serverless).
type FleetConfig struct {
	Name   string
	Events Events

	// Tick is the evaluation interval: how often offered load is
	// sampled, p95 recomputed and burn accounted (default 10 s).
	Tick sim.Time
}

// Instance is one member of a job's fleet: the node hosting a service
// replica or a function instance, as Take returned it, so capacity and
// kind are read without a lookup by ID. Rev (the revision the instance
// runs) and WarmAt (when its boot finishes) are serverless state;
// keeping them here lets every removal path drop an instance without
// per-framework bookkeeping.
type Instance struct {
	Node   Node
	Rev    int
	WarmAt sim.Time
}

// rollingWindow is the number of per-tick p95 samples kept for
// RollingP95 — enough history to smooth one-tick blips without hiding a
// building burst from the Application Controller.
const rollingWindow = 6

// Fleet is one job of a fleet framework: the job, the instances it runs
// on, its lifetime segment and its SLO accounting. X is the framework's
// own per-job state.
type Fleet[X any] struct {
	Job    *Job
	Target int        // desired instances; the framework grows toward it
	Insts  []Instance // in assignment order
	X      X

	seq       uint64    // submission order
	initial   int       // start target, restored by Suspend and Resume
	startedAt sim.Time  // current execution segment start
	finish    sim.Timer // fires when the remaining lifetime elapses

	// SLO accounting, advanced by the framework's tick.
	Intervals    int // evaluated intervals
	Burned       int // intervals with p95 above target, or the job down
	PeakReplicas int
	window       [rollingWindow]float64
	windowN      int // samples recorded into window (caps at len(window))
}

// Record accounts one evaluated interval at latency p95: the sample
// enters the rolling window, and the interval burns when p95 exceeds
// the job's target.
func (f *Fleet[X]) Record(p95 float64) {
	f.window[f.windowN%len(f.window)] = p95
	f.windowN++
	f.Intervals++
	if f.Job.TargetP95 > 0 && p95 > f.Job.TargetP95 {
		f.Burned++
	}
}

// Down accounts one interval of outage (the job is queued or
// suspended): it burns.
func (f *Fleet[X]) Down() {
	f.Intervals++
	f.Burned++
}

// RollingP95 returns the worst p95 over the rolling window, 0 before
// the first sample.
func (f *Fleet[X]) RollingP95() float64 {
	out := 0.0
	for _, p := range f.window[:min(f.windowN, len(f.window))] {
		if p > out {
			out = p
		}
	}
	return out
}

// OfferedRate samples the job's open-loop arrival process at t. A nil
// or negative rate offers nothing.
func (f *Fleet[X]) OfferedRate(t sim.Time) float64 {
	if f.Job.Rate == nil {
		return 0
	}
	r := f.Job.Rate(t)
	if r < 0 {
		return 0
	}
	return r
}

// Fleets is the job table of a framework that runs each job as a fleet
// of instances on dedicated nodes for a contracted lifetime of wall
// seconds (Job.Work): service replicas, function instances. It embeds
// the node table and implements the job half of Framework (Get,
// Running, QueuedJobCount, Progress, VisitJobNodes) plus Name, Image
// and Tick.
//
// Everything else is a primitive that changes the table and returns:
// the framework validates and decides (whether a lost last instance
// requeues, when a queued job starts, how the fleet is sized), calls
// the primitives, then runs its own scheduling pass. The table runs
// only two pieces of framework code, the two timers it arms: the tick
// given to Init, due while unsettled jobs exist, and the finish
// callback given to Begin.
type Fleets[X any] struct {
	Nodes

	// Queue holds jobs waiting to start, front first; Active holds the
	// running jobs in submission order.
	Queue  Deque[*Fleet[X]]
	Active SeqSet[*Fleet[X]]

	eng     *sim.Engine
	cfg     FleetConfig
	jobs    map[string]*Fleet[X]
	jobSeq  uint64
	running SeqSet[*Job] // Active's jobs, the Running() listing

	// unsettled counts jobs not yet done: the ticker runs while any
	// exist (queued and suspended jobs burn SLO intervals too).
	unsettled int
	tick      sim.Timer
	tickOnce  func() // Init's onTick, then armTick; bound once, so re-arming allocates nothing
}

// Init prepares an empty table on eng. The tick defaults to 10 s;
// onTick runs every tick while unsettled jobs exist.
func (t *Fleets[X]) Init(eng *sim.Engine, cfg FleetConfig, onTick func()) {
	if cfg.Tick <= 0 {
		cfg.Tick = sim.Seconds(10)
	}
	t.eng, t.cfg = eng, cfg
	t.tickOnce = func() {
		onTick()
		t.armTick()
	}
	t.jobs = make(map[string]*Fleet[X])
}

// armTick arms the next tick one interval from now, unless no job is
// unsettled or a tick is already armed.
func (t *Fleets[X]) armTick() {
	if t.unsettled > 0 && !t.tick.Active() {
		t.tick = t.eng.After(t.cfg.Tick, t.tickOnce)
	}
}

// Name implements Framework.
func (t *Fleets[X]) Name() string { return t.cfg.Name }

// Image implements Framework: the name plus ".img".
func (t *Fleets[X]) Image() string { return t.cfg.Name + ".img" }

// Tick returns the evaluation interval.
func (t *Fleets[X]) Tick() sim.Time { return t.cfg.Tick }

// Now returns the current simulated time.
func (t *Fleets[X]) Now() sim.Time { return t.eng.Now() }

// Add enqueues a validated job at the back of the queue with zero
// replicas, records target as its start target, and arms the ticker. A
// duplicate ID returns ErrJobExists and leaves j untouched.
func (t *Fleets[X]) Add(j *Job, target int) (*Fleet[X], error) {
	if _, dup := t.jobs[j.ID]; dup {
		return nil, fmt.Errorf("%w: %s", ErrJobExists, j.ID)
	}
	j.State = JobQueued
	j.SubmittedAt = t.eng.Now()
	j.Replicas = 0
	f := &Fleet[X]{Job: j, Target: target, seq: t.jobSeq, initial: target}
	t.jobSeq++
	t.jobs[j.ID] = f
	t.Queue.PushBack(f)
	t.unsettled++
	t.armTick()
	return f, nil
}

// Begin starts a job the caller took off the queue, on whatever
// instances it holds: the job runs for the rest of its lifetime, then
// onFinish fires. OnStart fires last.
func (t *Fleets[X]) Begin(f *Fleet[X], onFinish func()) {
	j := f.Job
	now := t.eng.Now()
	if !j.Started {
		j.Started = true
		j.StartedAt = now
	}
	j.State = JobRunning
	f.startedAt = now
	t.running.Insert(f.seq, j)
	t.Active.Insert(f.seq, f)
	remaining := j.Work - j.DoneWork
	f.finish = t.eng.After(sim.Seconds(remaining), onFinish)
	fire(t.cfg.Events.OnStart, j)
}

// End settles a job whose lifetime elapsed: done, its nodes free, the
// ticker disarmed with the last unsettled job, then OnFinish.
// Job.Replicas keeps its last value for the record.
func (t *Fleets[X]) End(f *Fleet[X]) {
	j := f.Job
	j.State = JobDone
	j.DoneWork = j.Work
	j.FinishedAt = t.eng.Now()
	t.releaseAll(f)
	t.running.Remove(f.seq)
	t.Active.Remove(f.seq)
	t.unsettled--
	if t.unsettled == 0 {
		t.tick.Cancel()
	}
	fire(t.cfg.Events.OnFinish, j)
}

// Suspend stops a running job: the elapsed lifetime is banked, every
// node frees, the target returns to the start target, then OnSuspend.
func (t *Fleets[X]) Suspend(id string) error {
	f, err := t.LookupRunning(id)
	if err != nil {
		return err
	}
	t.releaseAll(f)
	t.stop(f)
	f.Target = f.initial
	f.Job.State = JobSuspended
	f.Job.Suspensions++
	fire(t.cfg.Events.OnSuspend, f.Job)
	return nil
}

// Resume puts a suspended job at the front of the queue at its start
// target.
func (t *Fleets[X]) Resume(id string) error {
	f, err := t.Lookup(id)
	if err != nil {
		return err
	}
	j := f.Job
	if j.State != JobSuspended {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, j.State)
	}
	j.State = JobQueued
	f.Target = f.initial
	t.Queue.PushFront(f)
	return nil
}

// Requeue takes a running job that lost its last instance back to the
// front of the queue: the elapsed lifetime is banked, then OnRequeue.
// Its target is kept.
func (t *Fleets[X]) Requeue(f *Fleet[X]) {
	t.stop(f)
	f.Job.State = JobQueued
	t.Queue.PushFront(f)
	fire(t.cfg.Events.OnRequeue, f.Job)
}

// Scaled fires OnScale: a running job's node set changed in place.
func (t *Fleets[X]) Scaled(f *Fleet[X]) { fire(t.cfg.Events.OnScale, f.Job) }

// Grow assigns up to k free nodes to the fleet in attach order and
// returns how many it got. The new instances are appended with zero
// Rev and WarmAt.
func (t *Fleets[X]) Grow(f *Fleet[X], k int) int {
	got := 0
	for ; k > 0; k-- {
		n, ok := t.Take(f.Job.ID)
		if !ok {
			break
		}
		f.Insts = append(f.Insts, Instance{Node: n})
		got++
	}
	f.Job.Replicas = len(f.Insts)
	if f.Job.Replicas > f.PeakReplicas {
		f.PeakReplicas = f.Job.Replicas
	}
	return got
}

// ReleaseNewest frees k instances, newest assignment first: scale-out
// capacity (typically cloud boosts, attached latest) returns before the
// original footprint.
func (t *Fleets[X]) ReleaseNewest(f *Fleet[X], k int) {
	for ; k > 0 && len(f.Insts) > 0; k-- {
		in := f.Insts[len(f.Insts)-1]
		f.Insts = f.Insts[:len(f.Insts)-1]
		t.Release(in.Node.ID)
	}
	f.Job.Replicas = len(f.Insts)
}

// DetachInstance is the table half of FailNode: it forcibly removes a
// node and drops the instance it hosted from its fleet, returning that
// fleet, or nil when the node was idle.
func (t *Fleets[X]) DetachInstance(id string) (*Fleet[X], error) {
	jobID, err := t.Detach(id)
	if err != nil || jobID == "" {
		return nil, err
	}
	f := t.jobs[jobID]
	for i, in := range f.Insts {
		if in.Node.ID == id {
			f.Insts = append(f.Insts[:i], f.Insts[i+1:]...)
			break
		}
	}
	f.Job.Replicas = len(f.Insts)
	return f, nil
}

// Shrink reclaims k instances from a running job and keeps at least
// one. Private-hosted instances go first, newest first within each
// kind: reclaimed capacity must be transferable private VMs, and cloud
// leases cannot change VCs. The target drops to the new size, so a
// scheduling pass does not re-grow onto the freed nodes.
func (t *Fleets[X]) Shrink(id string, k int) (*Fleet[X], error) {
	f, err := t.LookupRunning(id)
	if err != nil {
		return nil, err
	}
	if k <= 0 || k > len(f.Insts)-1 {
		return nil, fmt.Errorf("%w: shrink %s by %d with %d instances", ErrJobState, id, k, len(f.Insts))
	}
	for pass := 0; pass < 2 && k > 0; pass++ {
		wantCloud := pass == 1
		for i := len(f.Insts) - 1; i >= 0 && k > 0; i-- {
			in := f.Insts[i]
			if in.Node.Cloud != wantCloud {
				continue
			}
			f.Insts = append(f.Insts[:i], f.Insts[i+1:]...)
			t.Release(in.Node.ID)
			k--
		}
	}
	f.Job.Replicas = len(f.Insts)
	f.Target = len(f.Insts)
	return f, nil
}

// ReplicaKinds counts a running job's instance hosts by kind — what a
// reclaim bid checks before promising transferable private VMs.
func (t *Fleets[X]) ReplicaKinds(id string) (private, cloud int, err error) {
	f, err := t.runningFleet(id)
	if err != nil {
		return 0, 0, err
	}
	for _, in := range f.Insts {
		if in.Node.Cloud {
			cloud++
		} else {
			private++
		}
	}
	return private, cloud, nil
}

// Lookup returns a job's fleet, or ErrJobUnknown.
func (t *Fleets[X]) Lookup(id string) (*Fleet[X], error) {
	f, ok := t.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	return f, nil
}

// LookupRunning returns a running job's fleet, or ErrJobUnknown or
// ErrJobState.
func (t *Fleets[X]) LookupRunning(id string) (*Fleet[X], error) {
	f, err := t.Lookup(id)
	if err != nil {
		return nil, err
	}
	if f.Job.State != JobRunning {
		return nil, fmt.Errorf("%w: %s is %v", ErrJobState, id, f.Job.State)
	}
	return f, nil
}

// VisitSuspended calls visit for each suspended job. Suspension is rare
// (reclaim shrinks fleets instead), so this scans the job table in map
// order: visit may only advance per-job counters, so that the order
// cannot leak into results. Every unsettled job is running, queued or
// suspended, so when the first two account for all of them the scan is
// skipped.
func (t *Fleets[X]) VisitSuspended(visit func(*Fleet[X])) {
	if t.unsettled == t.Active.Len()+t.Queue.Len() {
		return
	}
	for _, f := range t.jobs {
		if f.Job.State == JobSuspended {
			visit(f)
		}
	}
}

// VisitJobNodes implements Framework: assignment order, which is
// deterministic for a given simulation. A running job with an empty
// fleet (a cold function) visits nothing.
func (t *Fleets[X]) VisitJobNodes(id string, visit func(id string) bool) error {
	f, err := t.runningFleet(id)
	if err != nil {
		return err
	}
	for _, in := range f.Insts {
		if !visit(in.Node.ID) {
			return nil
		}
	}
	return nil
}

// Progress implements Framework: elapsed lifetime over contracted
// lifetime.
func (t *Fleets[X]) Progress(id string) (float64, error) {
	f, err := t.Lookup(id)
	if err != nil {
		return 0, err
	}
	j := f.Job
	done := j.DoneWork
	if j.State == JobRunning {
		done += sim.ToSeconds(t.eng.Now() - f.startedAt)
	}
	p := done / j.Work
	if p > 1 {
		p = 1
	}
	return p, nil
}

// Get implements Framework.
func (t *Fleets[X]) Get(id string) (*Job, bool) {
	f, ok := t.jobs[id]
	if !ok {
		return nil, false
	}
	return f.Job, true
}

// Running implements Framework: running jobs in submission order. The
// slice is the maintained internal set; callers must not mutate or
// retain it across state changes.
func (t *Fleets[X]) Running() []*Job { return t.running.Values() }

// QueuedJobCount implements Framework.
func (t *Fleets[X]) QueuedJobCount() int { return t.Queue.Len() }

// runningFleet returns a running job's fleet; any other job, or an
// unknown one, is ErrJobState.
func (t *Fleets[X]) runningFleet(id string) (*Fleet[X], error) {
	f, ok := t.jobs[id]
	if !ok || f.Job.State != JobRunning {
		return nil, fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	return f, nil
}

// stop ends a running job's execution segment: the finish timer is
// cancelled, the elapsed wall time banked into DoneWork and the job
// taken out of the running sets. The caller frees any nodes and sets
// the new state.
func (t *Fleets[X]) stop(f *Fleet[X]) {
	j := f.Job
	f.finish.Cancel()
	j.DoneWork += sim.ToSeconds(t.eng.Now() - f.startedAt)
	if j.DoneWork > j.Work {
		j.DoneWork = j.Work
	}
	j.Replicas = 0
	t.running.Remove(f.seq)
	t.Active.Remove(f.seq)
}

// fire delivers an optional event.
func fire(ev func(*Job), j *Job) {
	if ev != nil {
		ev(j)
	}
}

// releaseAll frees every instance of a fleet. It leaves Job.Replicas
// alone: a finished job reports its last fleet size.
func (t *Fleets[X]) releaseAll(f *Fleet[X]) {
	for _, in := range f.Insts {
		t.Release(in.Node.ID)
	}
	f.Insts = nil
}
