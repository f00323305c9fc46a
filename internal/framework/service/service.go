// Package service implements an elastic, replicated long-running-service
// framework — the third hosted framework family after batch (OGE-like)
// and mapreduce (Hadoop-like), exercising Meryn's openness claim on the
// workload class soCloud and SLO-ML identify as the defining multi-cloud
// PaaS concern: latency-sensitive services under elastic load.
//
// A service job runs one replica per node for a contracted lifetime
// (Job.Work seconds of wall time). Requests arrive open-loop at a rate
// Job.Rate(t) the framework samples every Tick; each replica serves
// Job.SvcRate requests/s at SpeedFactor 1.0. Latency follows an
// M/M/1-PS aggregate model (see p95 below): the framework evaluates the
// p95 response time once per tick, records it in a rolling window, and
// counts SLO-burn intervals against Job.TargetP95 — including intervals
// spent queued or suspended, which are full outages.
//
// Elasticity: each service has a target replica count (initially the
// contracted Job.VMs). SetTargetReplicas grows the service onto free
// nodes (next scheduling pass) or shrinks it immediately, and Shrink
// lets the Cluster Manager reclaim replicas under a bid — services
// yield capacity by shrinking, never by suspending, which is what makes
// the reclaim bid of the service adapter (core) cheap when load is low.
//
// Scheduler state is indexed exactly like batch: the node table is the
// shared dedicated-node table (framework.Nodes), the wait queue is a
// ring deque, and the running set is a maintained submission-ordered
// SeqSet.
package service

import (
	"errors"
	"fmt"
	"math"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

// Errors returned by the service framework.
var (
	ErrJobExists  = errors.New("service: job already submitted")
	ErrJobUnknown = errors.New("service: unknown job")
	ErrJobState   = errors.New("service: job is not in a valid state for this operation")
	ErrBadJob     = errors.New("service: invalid job description")
)

// svcState is the framework's per-service bookkeeping.
type svcState struct {
	job *framework.Job
	seq uint64 // submission order

	target  int      // desired replicas; schedule() grows toward it
	nodeIDs []string // replica nodes in assignment order

	startedAt sim.Time  // current execution segment start
	finish    sim.Timer // fires when the remaining lifetime elapses

	// SLO accounting, advanced once per tick while the job is unsettled.
	intervals int // evaluated intervals
	burned    int // intervals with p95 above target (or the service down)
	window    [rollingWindow]float64
	windowN   int // samples recorded into window (caps at len(window))

	peakReplicas int
}

// rollingWindow is the number of per-tick p95 samples kept for
// RollingP95 — enough history to smooth one-tick blips without hiding a
// building burst from the Application Controller.
const rollingWindow = 6

// Stats is the monitoring view one service exposes to its Application
// Controller: current load, capacity, latency and SLO-burn accounting.
type Stats struct {
	Replicas int // current replica count
	Target   int // desired replica count

	OfferedRate float64 // requests/s arriving now
	Capacity    float64 // requests/s the current replicas absorb
	P95         float64 // latest per-tick p95 response time [s]
	RollingP95  float64 // max p95 over the rolling window [s]

	Intervals    int // SLO intervals evaluated so far
	Burned       int // intervals that burned (p95 over target, or downtime)
	PeakReplicas int
}

// Config configures a service framework instance.
type Config struct {
	Name   string
	Image  string
	Events framework.Events

	// Tick is the SLO evaluation interval: how often offered load is
	// sampled, p95 recomputed and burn accounted (default 10 s).
	Tick sim.Time
}

// Service is the elastic long-running-service framework. It implements
// framework.Framework.
type Service struct {
	framework.Nodes

	eng *sim.Engine
	cfg Config

	jobs   map[string]*svcState
	jobSeq uint64
	queue  framework.Deque[string] // services waiting for their initial replicas

	// running holds running jobs in submission order (Framework
	// contract); states mirrors it with the framework bookkeeping.
	running framework.SeqSet[*framework.Job]
	states  framework.SeqSet[*svcState]

	// unsettled counts services not yet done: the ticker runs while any
	// exist (queued and suspended services burn SLO intervals too).
	unsettled int
	tick      sim.Timer
}

var _ framework.Framework = (*Service)(nil)

// New returns an empty service framework.
func New(eng *sim.Engine, cfg Config) *Service {
	if cfg.Name == "" {
		cfg.Name = "service"
	}
	if cfg.Image == "" {
		cfg.Image = cfg.Name + ".img"
	}
	if cfg.Tick <= 0 {
		cfg.Tick = sim.Seconds(10)
	}
	return &Service{
		eng:  eng,
		cfg:  cfg,
		jobs: make(map[string]*svcState),
	}
}

// Name implements framework.Framework.
func (s *Service) Name() string { return s.cfg.Name }

// Image implements framework.Framework.
func (s *Service) Image() string { return s.cfg.Image }

// Tick returns the SLO evaluation interval.
func (s *Service) Tick() sim.Time { return s.cfg.Tick }

// AddNode implements framework.Framework. New capacity immediately
// feeds waiting services and under-target growth.
func (s *Service) AddNode(n framework.Node) {
	s.Attach(n)
	s.schedule()
}

// FailNode implements framework.Framework. Losing one replica of many is
// survivable — that is the availability argument for replication — so
// the service keeps running on the survivors (an OnScale notification
// re-opens accounting). Losing the last replica takes the service down:
// it requeues at the front with its elapsed lifetime preserved.
func (s *Service) FailNode(id string) error {
	jobID, err := s.Detach(id)
	if err != nil || jobID == "" {
		return err
	}
	st := s.jobs[jobID]
	for i, nid := range st.nodeIDs {
		if nid == id {
			st.nodeIDs = append(st.nodeIDs[:i], st.nodeIDs[i+1:]...)
			break
		}
	}
	st.job.Replicas = len(st.nodeIDs)
	if len(st.nodeIDs) > 0 {
		if s.cfg.Events.OnScale != nil {
			s.cfg.Events.OnScale(st.job)
		}
		s.schedule() // chase the pre-crash target on remaining capacity
		return nil
	}
	// Last replica lost: the service is down.
	st.finish.Cancel()
	s.accrueLifetime(st)
	st.job.State = framework.JobQueued
	s.running.Remove(st.seq)
	s.states.Remove(st.seq)
	s.queue.PushFront(jobID)
	if s.cfg.Events.OnRequeue != nil {
		s.cfg.Events.OnRequeue(st.job)
	}
	s.schedule()
	return nil
}

// Submit implements framework.Framework. Service jobs declare contracted
// replicas (VMs), a per-replica capacity (SvcRate) and a lifetime in
// wall seconds (Work); Rate may be nil for a constant zero-load service.
func (s *Service) Submit(j *framework.Job) error {
	if j.ID == "" || j.VMs <= 0 || j.Work <= 0 || j.SvcRate <= 0 {
		return fmt.Errorf("%w: id=%q replicas=%d lifetime=%g rate=%g", ErrBadJob, j.ID, j.VMs, j.Work, j.SvcRate)
	}
	if _, dup := s.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %s", ErrJobExists, j.ID)
	}
	j.State = framework.JobQueued
	j.SubmittedAt = s.eng.Now()
	j.Replicas = 0
	st := &svcState{job: j, seq: s.jobSeq, target: j.VMs}
	s.jobSeq++
	s.jobs[j.ID] = st
	s.queue.PushBack(j.ID)
	s.unsettled++
	s.ensureTicker()
	s.schedule()
	return nil
}

// Suspend implements framework.Framework. All replicas stop (a full
// outage: suspended intervals burn the SLO), the elapsed lifetime is
// preserved, and the nodes free up. The resource selection protocol
// prefers shrinking services over suspending them — this exists for
// interface completeness and drains.
func (s *Service) Suspend(id string) error {
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
	s.Release(st.nodeIDs...)
	st.nodeIDs = nil
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

// Resume implements framework.Framework. The service restarts at its
// contracted replica count, at the front of the wait queue.
func (s *Service) Resume(id string) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	j := st.job
	if j.State != framework.JobSuspended {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, j.State)
	}
	j.State = framework.JobQueued
	st.target = j.VMs
	s.queue.PushFront(id)
	if s.cfg.Events.OnResume != nil {
		s.cfg.Events.OnResume(j)
	}
	s.schedule()
	return nil
}

// JobNodes implements framework.Framework.
func (s *Service) JobNodes(id string) ([]string, error) {
	st, ok := s.jobs[id]
	if !ok || st.job.State != framework.JobRunning {
		return nil, fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	out := make([]string, len(st.nodeIDs))
	copy(out, st.nodeIDs)
	return out, nil
}

// VisitJobNodes implements framework.Framework: assignment order, which
// is deterministic for a given simulation.
func (s *Service) VisitJobNodes(id string, visit func(id string) bool) error {
	st, ok := s.jobs[id]
	if !ok || st.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	for _, nid := range st.nodeIDs {
		if !visit(nid) {
			return nil
		}
	}
	return nil
}

// Progress implements framework.Framework: elapsed lifetime over
// contracted lifetime.
func (s *Service) Progress(id string) (float64, error) {
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
func (s *Service) Get(id string) (*framework.Job, bool) {
	st, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return st.job, true
}

// Running implements framework.Framework: running jobs in submission
// order. The slice is the maintained internal set; callers must not
// mutate or retain it across state changes.
func (s *Service) Running() []*framework.Job { return s.running.Values() }

// QueuedJobs implements framework.Framework.
func (s *Service) QueuedJobs() []*framework.Job {
	out := make([]*framework.Job, 0, s.queue.Len())
	for i := 0; i < s.queue.Len(); i++ {
		out = append(out, s.jobs[s.queue.At(i)].job)
	}
	return out
}

// SetTargetReplicas steers a running service's elasticity: growth
// happens on the next scheduling pass as free nodes allow; shrinking
// releases replicas immediately (never below one). The Application
// Controller calls this from its latency monitoring loop.
func (s *Service) SetTargetReplicas(id string, n int) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if st.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, st.job.State)
	}
	if n < 1 {
		n = 1
	}
	st.target = n
	if n < len(st.nodeIDs) {
		s.releaseReplicas(st, len(st.nodeIDs)-n)
		if s.cfg.Events.OnScale != nil {
			s.cfg.Events.OnScale(st.job)
		}
		return nil
	}
	s.schedule()
	return nil
}

// Shrink reclaims k replicas from a running service (bid-driven: the
// Cluster Manager prices this as projected SLO-penalty loss). Unlike a
// controller scale-in, it releases private-hosted replicas first —
// reclaimed capacity must be transferable private VMs, and cloud
// leases cannot change VCs. It lowers the target with the size, so the
// service does not immediately re-grow onto the freed nodes; the
// controller raises the target again when latency demands it.
func (s *Service) Shrink(id string, k int) error {
	st, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	if st.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is %v", ErrJobState, id, st.job.State)
	}
	if k <= 0 || k > len(st.nodeIDs)-1 {
		return fmt.Errorf("%w: shrink %s by %d with %d replicas", ErrJobState, id, k, len(st.nodeIDs))
	}
	// Newest-first within each kind, private pass before cloud pass.
	for pass := 0; pass < 2 && k > 0; pass++ {
		wantCloud := pass == 1
		for i := len(st.nodeIDs) - 1; i >= 0 && k > 0; i-- {
			nid := st.nodeIDs[i]
			if s.Node(nid).Cloud != wantCloud {
				continue
			}
			st.nodeIDs = append(st.nodeIDs[:i], st.nodeIDs[i+1:]...)
			s.Release(nid)
			k--
		}
	}
	st.job.Replicas = len(st.nodeIDs)
	st.target = len(st.nodeIDs)
	if s.cfg.Events.OnScale != nil {
		s.cfg.Events.OnScale(st.job)
	}
	return nil
}

// ReplicaKinds counts a running service's replica hosts by kind — what
// a reclaim bid checks before promising transferable private VMs.
func (s *Service) ReplicaKinds(id string) (private, cloud int, err error) {
	st, ok := s.jobs[id]
	if !ok || st.job.State != framework.JobRunning {
		return 0, 0, fmt.Errorf("%w: %s is not running", ErrJobState, id)
	}
	for _, nid := range st.nodeIDs {
		if s.Node(nid).Cloud {
			cloud++
		} else {
			private++
		}
	}
	return private, cloud, nil
}

// TargetReplicas returns a service's current target.
func (s *Service) TargetReplicas(id string) (int, error) {
	st, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	return st.target, nil
}

// ServiceStats returns the monitoring view for one service. It is valid
// for any unsettled service; a queued or suspended service reports zero
// replicas and capacity (its burn accounting keeps advancing).
func (s *Service) ServiceStats(id string) (Stats, error) {
	st, ok := s.jobs[id]
	if !ok {
		return Stats{}, fmt.Errorf("%w: %s", ErrJobUnknown, id)
	}
	out := Stats{
		Replicas:     len(st.nodeIDs),
		Target:       st.target,
		Intervals:    st.intervals,
		Burned:       st.burned,
		PeakReplicas: st.peakReplicas,
	}
	if st.job.State == framework.JobRunning {
		out.OfferedRate = offeredRate(st.job, s.eng.Now())
		out.Capacity = s.capacity(st)
		out.P95 = s.p95(st)
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

// capacity sums replica service rates over the assigned nodes.
func (s *Service) capacity(st *svcState) float64 {
	c := 0.0
	for _, id := range st.nodeIDs {
		c += st.job.SvcRate * s.Node(id).SpeedFactor
	}
	return c
}

// p95 evaluates the latency model at the current instant: an M/M/1-PS
// aggregate over the replica set. With offered rate λ, aggregate
// capacity C and mean base service time S0 = n/C, the mean sojourn time
// is S0/(1-ρ) for ρ = λ/C < 1, and the 95th percentile of the
// (approximately exponential) sojourn is -ln(0.05) ≈ 3 times that. At
// or beyond saturation the queue grows without bound within the tick,
// reported as +Inf.
func (s *Service) p95(st *svcState) float64 {
	c := s.capacity(st)
	if c <= 0 {
		return math.Inf(1)
	}
	lambda := offeredRate(st.job, s.eng.Now())
	rho := lambda / c
	if rho >= 1 {
		return math.Inf(1)
	}
	s0 := float64(len(st.nodeIDs)) / c
	return 3 * s0 / (1 - rho)
}

// ensureTicker starts the SLO evaluation ticker when unsettled services
// exist; onTick cancels it when the last one settles, so a drained
// framework schedules no events and simulations terminate naturally.
func (s *Service) ensureTicker() {
	if s.tick.Active() || s.unsettled == 0 {
		return
	}
	s.tick = s.eng.Every(s.cfg.Tick, s.onTick)
}

// onTick advances SLO accounting for every unsettled service: running
// services evaluate the latency model, queued and suspended services
// burn outright (they are down). Iteration is submission-ordered over
// the full job table, so accounting is deterministic.
func (s *Service) onTick() {
	if s.unsettled == 0 {
		s.tick.Cancel()
		return
	}
	// Running services first (maintained submission order, no scan).
	for _, st := range s.states.Values() {
		p := s.p95(st)
		st.window[st.windowN%len(st.window)] = p
		st.windowN++
		st.intervals++
		if st.job.TargetP95 > 0 && p > st.job.TargetP95 {
			st.burned++
		}
	}
	// Queued services: down, full burn.
	for i := 0; i < s.queue.Len(); i++ {
		st := s.jobs[s.queue.At(i)]
		st.intervals++
		st.burned++
	}
	// Suspended services: down too. Rare (the protocol shrinks services
	// instead of suspending them), so a job-table scan is acceptable —
	// only counters advance, so map order cannot leak into results.
	for _, st := range s.jobs {
		if st.job.State == framework.JobSuspended {
			st.intervals++
			st.burned++
		}
	}
}

// accrueLifetime banks the elapsed wall time of the current execution
// segment into DoneWork.
func (s *Service) accrueLifetime(st *svcState) {
	j := st.job
	j.DoneWork += sim.ToSeconds(s.eng.Now() - st.startedAt)
	if j.DoneWork > j.Work {
		j.DoneWork = j.Work
	}
}

// releaseReplicas frees k replicas, newest assignment first — scale-out
// capacity (typically cloud boosts, attached latest) is returned before
// the original footprint.
func (s *Service) releaseReplicas(st *svcState, k int) {
	for ; k > 0 && len(st.nodeIDs) > 0; k-- {
		id := st.nodeIDs[len(st.nodeIDs)-1]
		st.nodeIDs = st.nodeIDs[:len(st.nodeIDs)-1]
		s.Release(id)
	}
	st.job.Replicas = len(st.nodeIDs)
}

// assignReplicas attaches up to k free nodes to the service, attach
// order, and returns how many it got.
func (s *Service) assignReplicas(st *svcState, k int) int {
	got := 0
	for ; k > 0; k-- {
		n, ok := s.Take(st.job.ID)
		if !ok {
			break
		}
		st.nodeIDs = append(st.nodeIDs, n.ID)
		got++
	}
	st.job.Replicas = len(st.nodeIDs)
	if st.job.Replicas > st.peakReplicas {
		st.peakReplicas = st.job.Replicas
	}
	return got
}

// schedule starts waiting services FIFO while their contracted replicas
// fit, then grows running services toward their targets in submission
// order. Start notifications fire after the service's full initial
// replica set is assigned (the Cluster Manager's segment-open callback
// must see the nodes); growth fires OnScale per changed service.
func (s *Service) schedule() {
	// Phase 1: starts (FIFO, head blocks — a service needs its full
	// contracted replica set to launch).
	for s.queue.Len() > 0 {
		st := s.jobs[s.queue.At(0)]
		if s.FreeLen() < st.job.VMs {
			break
		}
		s.queue.RemoveAt(0)
		s.start(st)
	}
	// Phase 2: growth toward targets.
	for _, st := range s.states.Values() {
		if s.FreeLen() == 0 {
			break
		}
		if want := st.target - len(st.nodeIDs); want > 0 {
			if s.assignReplicas(st, want) > 0 && s.cfg.Events.OnScale != nil {
				s.cfg.Events.OnScale(st.job)
			}
		}
	}
}

// start launches a service on its contracted replica count.
func (s *Service) start(st *svcState) {
	j := st.job
	s.assignReplicas(st, j.VMs)
	now := s.eng.Now()
	if !j.Started {
		j.Started = true
		j.StartedAt = now
	}
	j.State = framework.JobRunning
	st.startedAt = now
	s.running.Insert(st.seq, j)
	s.states.Insert(st.seq, st)
	remaining := j.Work - j.DoneWork
	st.finish = s.eng.After(sim.Seconds(remaining), func() { s.finishSvc(st) })
	if s.cfg.Events.OnStart != nil {
		s.cfg.Events.OnStart(j)
	}
}

// finishSvc settles a service whose contracted lifetime elapsed.
func (s *Service) finishSvc(st *svcState) {
	j := st.job
	j.State = framework.JobDone
	j.DoneWork = j.Work
	j.FinishedAt = s.eng.Now()
	s.Release(st.nodeIDs...)
	st.nodeIDs = nil
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
