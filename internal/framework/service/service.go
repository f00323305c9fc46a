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
// The job table is the one it shares with serverless
// (framework.Fleets, which embeds the shared node table): this package
// keeps only what makes a service different — validation, requeue on
// losing the last replica, starting at the contracted replica count,
// and the latency model.
package service

import (
	"fmt"
	"math"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

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
type Config = framework.FleetConfig

// fleet is one service: the shared job-table entry, with no state of
// its own.
type fleet = framework.Fleet[struct{}]

// Service is the elastic long-running-service framework. It implements
// framework.Framework.
type Service struct {
	framework.Fleets[struct{}]
}

var _ framework.Framework = (*Service)(nil)

// New returns an empty service framework.
func New(eng *sim.Engine, cfg Config) *Service {
	if cfg.Name == "" {
		cfg.Name = "service"
	}
	s := &Service{}
	s.Init(eng, cfg, s.onTick)
	return s
}

// AddNode implements framework.Framework. New capacity immediately
// feeds waiting services and under-target growth.
func (s *Service) AddNode(n framework.Node) framework.NodeRef {
	ref := s.Attach(n)
	s.schedule()
	return ref
}

// FailNode implements framework.Framework. Losing one replica of many is
// survivable — that is the availability argument for replication — so
// the service keeps running on the survivors (an OnScale notification
// re-opens accounting). Losing the last replica takes the service down:
// it requeues at the front with its elapsed lifetime preserved.
func (s *Service) FailNode(id string) error {
	f, err := s.DetachInstance(id)
	if err != nil || f == nil {
		return err
	}
	if len(f.Insts) > 0 {
		s.Scaled(f) // the next pass chases the pre-crash target
	} else {
		s.Requeue(f)
	}
	s.schedule()
	return nil
}

// Submit implements framework.Framework. Service jobs declare contracted
// replicas (VMs), a per-replica capacity (SvcRate) and a lifetime in
// wall seconds (Work); Rate may be nil for a constant zero-load service.
func (s *Service) Submit(j *framework.Job) error {
	if j.ID == "" || j.VMs <= 0 || j.Work <= 0 || j.SvcRate <= 0 {
		return fmt.Errorf("%w: id=%q replicas=%d lifetime=%g rate=%g", framework.ErrBadJob, j.ID, j.VMs, j.Work, j.SvcRate)
	}
	if _, err := s.Add(j, j.VMs); err != nil {
		return err
	}
	s.schedule()
	return nil
}

// Suspend implements framework.Framework. All replicas stop (a full
// outage: suspended intervals burn the SLO), the elapsed lifetime is
// preserved, and the nodes free up. The resource selection protocol
// prefers shrinking services over suspending them — this exists for
// interface completeness and drains.
func (s *Service) Suspend(id string) error {
	if err := s.Fleets.Suspend(id); err != nil {
		return err
	}
	s.schedule()
	return nil
}

// Resume implements framework.Framework. The service restarts at its
// contracted replica count, at the front of the wait queue.
func (s *Service) Resume(id string) error {
	if err := s.Fleets.Resume(id); err != nil {
		return err
	}
	s.schedule()
	return nil
}

// SetTargetReplicas steers a running service's elasticity: growth
// happens on the next scheduling pass as free nodes allow; shrinking
// releases replicas immediately (never below one). The Application
// Controller calls this from its latency monitoring loop.
func (s *Service) SetTargetReplicas(id string, n int) error {
	f, err := s.LookupRunning(id)
	if err != nil {
		return err
	}
	if n < 1 {
		n = 1
	}
	f.Target = n
	if n < len(f.Insts) {
		s.ReleaseNewest(f, len(f.Insts)-n)
		s.Scaled(f)
		return nil
	}
	s.schedule()
	return nil
}

// Shrink reclaims k replicas from a running service (bid-driven: the
// Cluster Manager prices this as projected SLO-penalty loss). Unlike a
// controller scale-in, it releases private-hosted replicas first and
// lowers the target with the size (see framework.Fleets.Shrink); the
// controller raises the target again when latency demands it.
func (s *Service) Shrink(id string, k int) error {
	f, err := s.Fleets.Shrink(id, k)
	if err != nil {
		return err
	}
	s.Scaled(f)
	return nil
}

// ServiceStats returns the monitoring view for one service. It is valid
// for any unsettled service; a queued or suspended service reports zero
// replicas and capacity (its burn accounting keeps advancing).
func (s *Service) ServiceStats(id string) (Stats, error) {
	f, err := s.Lookup(id)
	if err != nil {
		return Stats{}, err
	}
	out := Stats{
		Replicas:     len(f.Insts),
		Target:       f.Target,
		RollingP95:   f.RollingP95(),
		Intervals:    f.Intervals,
		Burned:       f.Burned,
		PeakReplicas: f.PeakReplicas,
	}
	if f.Job.State == framework.JobRunning {
		out.OfferedRate = f.OfferedRate(s.Now())
		out.Capacity = s.capacity(f)
		out.P95 = s.p95(f)
	}
	return out, nil
}

// --- internals ---

// capacity sums replica service rates over the assigned nodes.
func (s *Service) capacity(f *fleet) float64 {
	c := 0.0
	for _, in := range f.Insts {
		c += f.Job.SvcRate * in.Node.SpeedFactor
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
func (s *Service) p95(f *fleet) float64 {
	c := s.capacity(f)
	if c <= 0 {
		return math.Inf(1)
	}
	lambda := f.OfferedRate(s.Now())
	rho := lambda / c
	if rho >= 1 {
		return math.Inf(1)
	}
	s0 := float64(len(f.Insts)) / c
	return 3 * s0 / (1 - rho)
}

// onTick advances SLO accounting for every unsettled service: running
// services evaluate the latency model, queued and suspended services
// burn outright (they are down).
func (s *Service) onTick() {
	for _, f := range s.Active.Values() {
		f.Record(s.p95(f))
	}
	for i := 0; i < s.Queue.Len(); i++ {
		s.Queue.At(i).Down()
	}
	s.VisitSuspended((*fleet).Down)
}

// schedule starts waiting services FIFO while their contracted replicas
// fit, then grows running services toward their targets in submission
// order. Start notifications fire after the service's full initial
// replica set is assigned (the Cluster Manager's segment-open callback
// must see the nodes); growth fires OnScale per changed service.
func (s *Service) schedule() {
	// Phase 1: starts (FIFO, head blocks — a service needs its full
	// contracted replica set to launch).
	for s.Queue.Len() > 0 {
		f := s.Queue.At(0)
		if s.FreeLen() < f.Job.VMs {
			break
		}
		s.Queue.PopFront()
		s.Grow(f, f.Job.VMs)
		s.Begin(f, func() { s.finish(f) })
	}
	// Phase 2: growth toward targets.
	for _, f := range s.Active.Values() {
		if s.FreeLen() == 0 {
			break
		}
		if want := f.Target - len(f.Insts); want > 0 {
			if s.Grow(f, want) > 0 {
				s.Scaled(f)
			}
		}
	}
}

// finish settles a service whose contracted lifetime elapsed.
func (s *Service) finish(f *fleet) {
	s.End(f)
	s.schedule()
}
