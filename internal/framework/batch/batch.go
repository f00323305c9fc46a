// Package batch implements an OGE/Torque-like batch framework: a strict
// FIFO job queue, dedicated-node assignment — the paper configures the
// scheduler so each application owns a fixed number of VMs — and
// checkpoint-based job suspension, which is what makes the bid
// computation of paper Algorithm 2 possible.
//
// Scheduler state is indexed, not rescanned: the node table is the
// shared dedicated-node table (framework.Nodes), whose free set is
// maintained on every node/job transition, the job queue is a ring
// deque with O(1) front pops and requeues, and the running set is kept
// in submission order so Running() — called once per bid by the core
// protocol — neither sorts nor allocates.
package batch

import (
	"fmt"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

// jobEntry is the framework's record of one job: the job, its
// submission sequence number, which orders the maintained running set,
// and the state of its current run, valid while the job is running.
// The queue and the finish timer hold the entry itself, so scheduling,
// starting and finishing a job look nothing up by ID.
type jobEntry struct {
	job *framework.Job
	seq uint64

	nodeIDs   []string
	speed     float64 // min speed across assigned nodes
	startedAt sim.Time
	finish    sim.Timer
}

// running reports whether the entry's run state is current.
func (je *jobEntry) running() bool { return je.job.State == framework.JobRunning }

// Config configures a batch framework instance.
type Config struct {
	Name   string
	Events framework.Events
}

// Batch is an OGE-like framework. It implements framework.Framework.
type Batch struct {
	framework.Nodes

	eng *sim.Engine
	cfg Config

	jobs   map[string]*jobEntry // unfinished jobs by ID, for the by-ID operations
	jobSeq uint64
	queue  framework.Deque[*jobEntry] // jobs waiting

	// running holds running jobs in submission order.
	running framework.SeqSet[*framework.Job]
}

var _ framework.Framework = (*Batch)(nil)

// New returns an empty batch framework.
func New(eng *sim.Engine, cfg Config) *Batch {
	if cfg.Name == "" {
		cfg.Name = "batch"
	}
	return &Batch{
		eng:  eng,
		cfg:  cfg,
		jobs: make(map[string]*jobEntry),
	}
}

// Name implements framework.Framework.
func (b *Batch) Name() string { return b.cfg.Name }

// Image implements framework.Framework: the name plus ".img".
func (b *Batch) Image() string { return b.cfg.Name + ".img" }

// AddNode implements framework.Framework. Adding a node immediately
// triggers scheduling.
func (b *Batch) AddNode(n framework.Node) framework.NodeRef {
	ref := b.Attach(n)
	b.schedule()
	return ref
}

// FailNode implements framework.Framework. A crashed node kills the job
// gang-scheduled on it: progress since the last checkpoint (suspension)
// is lost, the job's surviving nodes are freed and the job requeues at
// the front.
func (b *Batch) FailNode(id string) error {
	jobID, err := b.Detach(id)
	if err != nil || jobID == "" {
		return err
	}
	je := b.jobs[jobID]
	je.finish.Cancel()
	b.running.Remove(je.seq)
	b.Release(je.nodeIDs...) // survivors become idle
	je.nodeIDs = nil
	j := je.job
	j.State = framework.JobQueued
	b.queue.PushFront(je)
	if b.cfg.Events.OnRequeue != nil {
		b.cfg.Events.OnRequeue(j)
	}
	b.schedule()
	return nil
}

// Submit implements framework.Framework.
func (b *Batch) Submit(j *framework.Job) error {
	if j.ID == "" || j.VMs <= 0 || j.Work <= 0 {
		return fmt.Errorf("%w: id=%q vms=%d work=%g", framework.ErrBadJob, j.ID, j.VMs, j.Work)
	}
	if _, dup := b.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %s", framework.ErrJobExists, j.ID)
	}
	j.State = framework.JobQueued
	j.SubmittedAt = b.eng.Now()
	je := &jobEntry{job: j, seq: b.jobSeq}
	b.jobs[j.ID] = je
	b.jobSeq++
	b.queue.PushBack(je)
	b.schedule()
	return nil
}

// Suspend implements framework.Framework. The job's completed work is
// preserved (checkpoint); its nodes become free.
func (b *Batch) Suspend(id string) error {
	je, ok := b.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", framework.ErrJobUnknown, id)
	}
	j := je.job
	if j.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is %v", framework.ErrJobState, id, j.State)
	}
	je.finish.Cancel()
	elapsed := sim.ToSeconds(b.eng.Now() - je.startedAt)
	j.DoneWork += elapsed * je.speed * float64(len(je.nodeIDs))
	if j.DoneWork > j.Work {
		j.DoneWork = j.Work
	}
	j.State = framework.JobSuspended
	j.Suspensions++
	b.Release(je.nodeIDs...)
	je.nodeIDs = nil
	b.running.Remove(je.seq)
	if b.cfg.Events.OnSuspend != nil {
		b.cfg.Events.OnSuspend(j)
	}
	b.schedule()
	return nil
}

// Resume implements framework.Framework. Resumed jobs go to the front of
// the queue so lent VMs returning to the VC restart the victim first.
func (b *Batch) Resume(id string) error {
	je, ok := b.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", framework.ErrJobUnknown, id)
	}
	j := je.job
	if j.State != framework.JobSuspended {
		return fmt.Errorf("%w: %s is %v", framework.ErrJobState, id, j.State)
	}
	j.State = framework.JobQueued
	b.queue.PushFront(je)
	b.schedule()
	return nil
}

// VisitJobNodes implements framework.Framework.
func (b *Batch) VisitJobNodes(id string, visit func(id string) bool) error {
	je, ok := b.jobs[id]
	if !ok || !je.running() {
		return fmt.Errorf("%w: %s is not running", framework.ErrJobState, id)
	}
	for _, nid := range je.nodeIDs {
		if !visit(nid) {
			return nil
		}
	}
	return nil
}

// Progress implements framework.Framework.
func (b *Batch) Progress(id string) (float64, error) {
	return b.ProgressAt(id, b.eng.Now())
}

// ProgressAt reports what Progress would return at virtual instant at,
// assuming the job's current run (if any) continues uninterrupted until
// then. The float operations mirror Progress exactly — Progress
// delegates here — so a caller projecting a future poll computes the
// poll's exact value.
func (b *Batch) ProgressAt(id string, at sim.Time) (float64, error) {
	je, ok := b.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", framework.ErrJobUnknown, id)
	}
	j := je.job
	done := j.DoneWork
	if je.running() {
		done += sim.ToSeconds(at-je.startedAt) * je.speed * float64(len(je.nodeIDs))
	}
	p := done / j.Work
	if p > 1 {
		p = 1
	}
	return p, nil
}

// Get implements framework.Framework.
func (b *Batch) Get(id string) (*framework.Job, bool) {
	je, ok := b.jobs[id]
	if !ok {
		return nil, false
	}
	return je.job, true
}

// Running implements framework.Framework: running jobs in submission
// order. The slice is the maintained internal set; callers must not
// mutate or retain it across state changes.
func (b *Batch) Running() []*framework.Job {
	return b.running.Values()
}

// QueuedJobCount implements framework.Framework.
func (b *Batch) QueuedJobCount() int { return b.queue.Len() }

// schedule starts queued jobs in strict FIFO order while the head's
// nodes are free: a blocked head blocks everyone. The free set is
// indexed, so each round costs O(nodes started) instead of O(all
// nodes).
func (b *Batch) schedule() {
	for b.queue.Len() > 0 {
		je := b.queue.At(0)
		if je.job.VMs > b.FreeLen() {
			return
		}
		b.queue.PopFront()
		b.start(je)
	}
}

// start runs a job on the first j.VMs free nodes in attach order; the
// caller checked that enough are free.
func (b *Batch) start(je *jobEntry) {
	j := je.job
	nodeIDs := make([]string, 0, j.VMs)
	speed := 0.0
	for len(nodeIDs) < j.VMs {
		n, _ := b.Take(j.ID)
		nodeIDs = append(nodeIDs, n.ID)
		if speed == 0 || n.SpeedFactor < speed {
			speed = n.SpeedFactor
		}
	}
	now := b.eng.Now()
	if !j.Started {
		j.Started = true
		j.StartedAt = now
	}
	j.State = framework.JobRunning
	// Jobs scale perfectly over their dedicated nodes: each node works
	// one 1/n slice at its own speed, and the job finishes when the
	// slowest slice does — Work / (n * min speed).
	remaining := (j.Work - j.DoneWork) / (speed * float64(len(nodeIDs)))
	je.nodeIDs, je.speed, je.startedAt = nodeIDs, speed, now
	b.running.Insert(je.seq, j)
	je.finish = b.eng.After(sim.Seconds(remaining), func() { b.finish(je) })
	if b.cfg.Events.OnStart != nil {
		b.cfg.Events.OnStart(j)
	}
}

// finish completes a job and forgets it: the job table holds only
// queued, running and suspended jobs, so its size follows the live set
// rather than the history. The submitter keeps the *Job.
func (b *Batch) finish(je *jobEntry) {
	j := je.job
	j.State = framework.JobDone
	j.DoneWork = j.Work
	j.FinishedAt = b.eng.Now()
	b.Release(je.nodeIDs...)
	je.nodeIDs = nil
	b.running.Remove(je.seq)
	delete(b.jobs, j.ID)
	if b.cfg.Events.OnFinish != nil {
		b.cfg.Events.OnFinish(j)
	}
	b.schedule()
}
