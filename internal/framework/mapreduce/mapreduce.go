// Package mapreduce implements a Hadoop-0.20-like framework: nodes
// contribute a fixed number of task slots, jobs consist of map tasks
// followed (after a barrier) by reduce tasks, and the scheduler hands
// slots to jobs in submission order. Suspension kills in-flight tasks
// (their partial work is lost) but keeps completed task output, matching
// how a Hadoop job can be drained and re-run from committed task state.
//
// This framework exercises Meryn's extensibility claim: the Cluster
// Manager drives it through exactly the same framework.Framework
// interface as the batch framework.
//
// Scheduler state is indexed, not rescanned: nodes with spare slots
// live in per-usage-level buckets (framework.NodeIndex per slot count,
// attach-ordered), so the least-loaded node pick is the head of the
// lowest non-empty bucket instead of a full node scan per task; the
// scheduler sweeps only active (queued or running) jobs; and the running
// set is maintained in submission order so Running() neither filters
// the whole job history nor allocates.
package mapreduce

import (
	"fmt"

	"meryn/internal/framework"
	"meryn/internal/sim"
)

type phase int

const (
	phaseMap phase = iota
	phaseReduce
)

// nodeState is the table's record of one node, and the NodeRef
// AddNode returns for it.
type nodeState struct {
	node      framework.Node
	dropped   bool // removed from the table (RemoveNode, FailNode)
	usedSlots int
	entry     framework.IndexEntry
}

// Status implements framework.NodeRef: a MapReduce node is busy while
// any of its task slots are in use.
func (ns *nodeState) Status() (framework.NodeStatus, bool) {
	if ns.dropped {
		return framework.NodeStatus{}, false
	}
	return framework.NodeStatus{Busy: ns.usedSlots > 0, Cloud: ns.node.Cloud}, true
}

type taskRun struct {
	jobID  string
	phase  phase
	nodeID string
	timer  sim.Timer
}

type jobState struct {
	job           *framework.Job
	seq           uint64 // submission order
	completedMaps int
	completedReds int
	runningMaps   int
	runningReds   int
	active        bool // queued or running (not suspended/done)
	tasks         map[int]*taskRun
	nextTask      int
	// nodeUse counts the job's in-flight tasks per node, and nodeList
	// keeps those nodes in first-use order, so VisitJobNodes needs no
	// per-call dedup pass over tasks — and visits run in a deterministic
	// order (float aggregation over a randomized map order would make
	// summed cost rates differ run to run).
	nodeUse  map[string]int
	nodeList []string
}

// Config configures a MapReduce framework instance.
type Config struct {
	Name         string
	SlotsPerNode int // task slots each node contributes; default 2
	Events       framework.Events
}

// MapReduce is a Hadoop-like framework. It implements framework.Framework.
type MapReduce struct {
	eng   *sim.Engine
	cfg   Config
	nodes map[string]*nodeState

	// attachSeq stamps nodes in attach order; the bucket indexes keep
	// that order so node selection matches the pre-index full scans.
	attachSeq uint64
	// buckets[u] holds nodes with usedSlots == u (u < SlotsPerNode);
	// fully loaded nodes are unindexed.
	buckets []framework.NodeIndex

	jobs   map[string]*jobState
	jobSeq uint64
	// active holds queued/running jobs in submission order — the only
	// jobs the scheduler sweeps (done/suspended jobs drop out).
	active framework.SeqSet[*jobState]

	// running holds running jobs in submission order.
	running framework.SeqSet[*framework.Job]

	// started collects jobs that transitioned to running during the
	// current scheduling sweep; OnStart fires after the sweep so the
	// job's first task wave is visible to VisitJobNodes in the callback
	// (firing per-task used to announce a start before any task was
	// registered, hiding the job's nodes from the Cluster Manager's
	// usage accounting).
	started []*framework.Job
}

var _ framework.Framework = (*MapReduce)(nil)

// New returns an empty MapReduce framework.
func New(eng *sim.Engine, cfg Config) *MapReduce {
	if cfg.Name == "" {
		cfg.Name = "mapreduce"
	}
	if cfg.SlotsPerNode <= 0 {
		cfg.SlotsPerNode = 2
	}
	return &MapReduce{
		eng:     eng,
		cfg:     cfg,
		nodes:   make(map[string]*nodeState),
		buckets: make([]framework.NodeIndex, cfg.SlotsPerNode),
		jobs:    make(map[string]*jobState),
	}
}

// Name implements framework.Framework.
func (m *MapReduce) Name() string { return m.cfg.Name }

// Image implements framework.Framework: the name plus ".img".
func (m *MapReduce) Image() string { return m.cfg.Name + ".img" }

// SlotsPerNode returns the per-node slot count.
func (m *MapReduce) SlotsPerNode() int { return m.cfg.SlotsPerNode }

// AddNode implements framework.Framework.
func (m *MapReduce) AddNode(n framework.Node) framework.NodeRef {
	if _, dup := m.nodes[n.ID]; dup {
		panic(fmt.Sprintf("%v: %s", framework.ErrNodeExists, n.ID))
	}
	if n.SpeedFactor <= 0 {
		n.SpeedFactor = 1.0
	}
	ns := &nodeState{node: n}
	ns.entry.Init(n.ID, m.attachSeq, n.Cloud)
	m.attachSeq++
	m.nodes[n.ID] = ns
	m.buckets[0].Insert(&ns.entry)
	m.schedule()
	return ns
}

// RemoveNode implements framework.Framework.
func (m *MapReduce) RemoveNode(id string) error {
	ns, ok := m.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", framework.ErrNodeUnknown, id)
	}
	if ns.usedSlots > 0 {
		return fmt.Errorf("%w: %s", framework.ErrNodeBusy, id)
	}
	ns.entry.Unlink()
	ns.dropped = true
	delete(m.nodes, id)
	return nil
}

// FailNode implements framework.Framework. Tasks in flight on the
// crashed node are lost and re-executed elsewhere; completed task output
// survives (Hadoop's committed-task semantics).
func (m *MapReduce) FailNode(id string) error {
	ns, ok := m.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", framework.ErrNodeUnknown, id)
	}
	for _, js := range m.active.Values() {
		for tid, tr := range js.tasks {
			if tr.nodeID != id {
				continue
			}
			tr.timer.Cancel()
			delete(js.tasks, tid)
			js.decNodeUse(tr.nodeID)
			if tr.phase == phaseMap {
				js.runningMaps--
			} else {
				js.runningReds--
			}
		}
	}
	ns.entry.Unlink()
	ns.dropped = true
	delete(m.nodes, id)
	m.schedule()
	return nil
}

// NumNodes implements framework.Framework.
func (m *MapReduce) NumNodes() int { return len(m.nodes) }

// InspectNode implements framework.Inspector.
func (m *MapReduce) InspectNode(id string) (framework.NodeStatus, bool) {
	ns, ok := m.nodes[id]
	if !ok {
		return framework.NodeStatus{}, false
	}
	return ns.Status()
}

// VisitNodeJobs implements framework.NodeJobVisitor: MapReduce nodes
// host task slots of several jobs, so the lookup checks each active
// job's per-node use index (an O(1) map probe per job — no walk over
// the job's node set).
func (m *MapReduce) VisitNodeJobs(nodeID string, visit func(jobID string) bool) {
	for _, js := range m.active.Values() {
		if js.nodeUse[nodeID] > 0 {
			if !visit(js.job.ID) {
				return
			}
		}
	}
}

// FreeNodeCount implements framework.Framework.
func (m *MapReduce) FreeNodeCount(cloud bool) int { return m.buckets[0].Count(cloud) }

// VisitFreeNodes implements framework.Framework.
func (m *MapReduce) VisitFreeNodes(cloud bool, visit func(id string) bool) {
	m.buckets[0].Visit(cloud, visit)
}

// Submit implements framework.Framework. MapReduce jobs must declare at
// least one map task with positive work; reduce tasks are optional but
// must carry positive work when present.
func (m *MapReduce) Submit(j *framework.Job) error {
	if j.ID == "" || j.MapTasks <= 0 || j.MapWork <= 0 {
		return fmt.Errorf("%w: id=%q maps=%d mapwork=%g", framework.ErrBadJob, j.ID, j.MapTasks, j.MapWork)
	}
	if j.ReduceTasks > 0 && j.ReduceWork <= 0 {
		return fmt.Errorf("%w: %d reduces with work %g", framework.ErrBadJob, j.ReduceTasks, j.ReduceWork)
	}
	if j.ReduceTasks < 0 {
		return fmt.Errorf("%w: negative reduce count", framework.ErrBadJob)
	}
	if _, dup := m.jobs[j.ID]; dup {
		return fmt.Errorf("%w: %s", framework.ErrJobExists, j.ID)
	}
	j.State = framework.JobQueued
	j.SubmittedAt = m.eng.Now()
	j.Work = float64(j.MapTasks)*j.MapWork + float64(j.ReduceTasks)*j.ReduceWork
	js := &jobState{job: j, seq: m.jobSeq, active: true,
		tasks: make(map[int]*taskRun), nodeUse: make(map[string]int)}
	m.jobSeq++
	m.jobs[j.ID] = js
	m.active.Insert(js.seq, js)
	m.schedule()
	return nil
}

// Suspend implements framework.Framework. Running tasks are killed and
// their in-progress work lost; completed task output is kept.
func (m *MapReduce) Suspend(id string) error {
	js, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", framework.ErrJobUnknown, id)
	}
	j := js.job
	if j.State != framework.JobRunning && j.State != framework.JobQueued {
		return fmt.Errorf("%w: %s is %v", framework.ErrJobState, id, j.State)
	}
	for tid, tr := range js.tasks {
		tr.timer.Cancel()
		m.releaseSlot(m.nodes[tr.nodeID])
		js.decNodeUse(tr.nodeID)
		delete(js.tasks, tid)
	}
	js.runningMaps, js.runningReds = 0, 0
	if j.State == framework.JobRunning {
		m.running.Remove(js.seq)
	}
	m.active.Remove(js.seq)
	js.active = false
	j.State = framework.JobSuspended
	j.Suspensions++
	if m.cfg.Events.OnSuspend != nil {
		m.cfg.Events.OnSuspend(j)
	}
	m.schedule()
	return nil
}

// Resume implements framework.Framework.
func (m *MapReduce) Resume(id string) error {
	js, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", framework.ErrJobUnknown, id)
	}
	if js.job.State != framework.JobSuspended {
		return fmt.Errorf("%w: %s is %v", framework.ErrJobState, id, js.job.State)
	}
	js.job.State = framework.JobQueued
	js.active = true
	m.active.Insert(js.seq, js)
	m.schedule()
	return nil
}

// incNodeUse adds one in-flight task to a node's count.
func (js *jobState) incNodeUse(nodeID string) {
	if js.nodeUse[nodeID]++; js.nodeUse[nodeID] == 1 {
		js.nodeList = append(js.nodeList, nodeID)
	}
}

// decNodeUse drops one in-flight task from a node's count.
func (js *jobState) decNodeUse(nodeID string) {
	if js.nodeUse[nodeID]--; js.nodeUse[nodeID] == 0 {
		delete(js.nodeUse, nodeID)
		for i, id := range js.nodeList {
			if id == nodeID {
				js.nodeList = append(js.nodeList[:i], js.nodeList[i+1:]...)
				break
			}
		}
	}
}

// VisitJobNodes implements framework.Framework: first-use order, which
// is deterministic for a given simulation.
func (m *MapReduce) VisitJobNodes(id string, visit func(id string) bool) error {
	js, ok := m.jobs[id]
	if !ok || js.job.State != framework.JobRunning {
		return fmt.Errorf("%w: %s is not running", framework.ErrJobState, id)
	}
	for _, nid := range js.nodeList {
		if !visit(nid) {
			return nil
		}
	}
	return nil
}

// Progress implements framework.Framework: completed task work over
// total task work (in-flight tasks count as incomplete, like Hadoop's
// committed-task progress).
func (m *MapReduce) Progress(id string) (float64, error) {
	js, ok := m.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", framework.ErrJobUnknown, id)
	}
	return js.job.DoneWork / js.job.Work, nil
}

// Get implements framework.Framework.
func (m *MapReduce) Get(id string) (*framework.Job, bool) {
	js, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return js.job, true
}

// Running implements framework.Framework: running jobs in submission
// order. The slice is the maintained internal set; callers must not
// mutate or retain it across state changes.
func (m *MapReduce) Running() []*framework.Job {
	return m.running.Values()
}

// QueuedJobCount implements framework.Framework: the active set holds
// the queued and the running jobs, and running holds the latter.
func (m *MapReduce) QueuedJobCount() int { return m.active.Len() - m.running.Len() }

// claimSlot moves a node up one usage level after a task launch.
func (m *MapReduce) claimSlot(ns *nodeState) {
	ns.entry.Unlink()
	ns.usedSlots++
	if ns.usedSlots < m.cfg.SlotsPerNode {
		m.buckets[ns.usedSlots].Insert(&ns.entry)
	}
}

// releaseSlot moves a node down one usage level after a task ends.
func (m *MapReduce) releaseSlot(ns *nodeState) {
	ns.entry.Unlink() // no-op when the node was fully loaded
	ns.usedSlots--
	m.buckets[ns.usedSlots].Insert(&ns.entry)
}

// freeSlotNode returns a node with a spare slot, preferring the
// least-loaded node (Hadoop spreads tasks), or "" when none exists.
// With the bucket indexes this is the head of the lowest non-empty
// bucket — exactly the node the old full scan picked.
func (m *MapReduce) freeSlotNode() string {
	for u := range m.buckets {
		if e := m.buckets[u].First(); e != nil {
			return e.ID()
		}
	}
	return ""
}

// nextReady returns the phase of the next runnable task for a job, or
// -1 when the job has nothing ready (barrier or exhausted).
func (js *jobState) nextReady() phase {
	j := js.job
	if js.completedMaps+js.runningMaps < j.MapTasks {
		return phaseMap
	}
	if js.completedMaps == j.MapTasks && // barrier: all maps committed
		js.completedReds+js.runningReds < j.ReduceTasks {
		return phaseReduce
	}
	return -1
}

func (m *MapReduce) schedule() {
	for {
		assigned := false
		for _, js := range m.active.Values() {
			ph := js.nextReady()
			if ph == -1 {
				continue
			}
			nodeID := m.freeSlotNode()
			if nodeID == "" {
				m.fireStarts() // no slots anywhere; stop the sweep
				return
			}
			m.launchTask(js, ph, nodeID)
			assigned = true
		}
		if !assigned {
			m.fireStarts()
			return
		}
	}
}

// fireStarts announces jobs that began running during the sweep, after
// their first task wave is fully registered. Each job is popped before
// its callback fires so a reentrant sweep cannot announce it twice.
func (m *MapReduce) fireStarts() {
	for len(m.started) > 0 {
		j := m.started[0]
		n := copy(m.started, m.started[1:])
		m.started[n] = nil // drop the stale tail reference
		m.started = m.started[:n]
		if m.cfg.Events.OnStart != nil {
			m.cfg.Events.OnStart(j)
		}
	}
}

func (m *MapReduce) launchTask(js *jobState, ph phase, nodeID string) {
	j := js.job
	ns := m.nodes[nodeID]
	m.claimSlot(ns)
	work := j.MapWork
	if ph == phaseReduce {
		work = j.ReduceWork
	}
	if ph == phaseMap {
		js.runningMaps++
	} else {
		js.runningReds++
	}
	if !j.Started {
		j.Started = true
		j.StartedAt = m.eng.Now()
	}
	if j.State == framework.JobQueued {
		j.State = framework.JobRunning
		m.running.Insert(js.seq, j)
		m.started = append(m.started, j)
	}
	tid := js.nextTask
	js.nextTask++
	tr := &taskRun{jobID: j.ID, phase: ph, nodeID: nodeID}
	js.tasks[tid] = tr
	js.incNodeUse(nodeID)
	exec := sim.Seconds(work / ns.node.SpeedFactor)
	tr.timer = m.eng.After(exec, func() { m.finishTask(js, tid, ph, work) })
}

func (m *MapReduce) finishTask(js *jobState, tid int, ph phase, work float64) {
	tr := js.tasks[tid]
	delete(js.tasks, tid)
	m.releaseSlot(m.nodes[tr.nodeID])
	js.decNodeUse(tr.nodeID)
	j := js.job
	j.DoneWork += work
	if ph == phaseMap {
		js.runningMaps--
		js.completedMaps++
	} else {
		js.runningReds--
		js.completedReds++
	}
	if js.completedMaps == j.MapTasks && js.completedReds == j.ReduceTasks {
		j.State = framework.JobDone
		j.FinishedAt = m.eng.Now()
		m.running.Remove(js.seq)
		m.active.Remove(js.seq)
		js.active = false
		if m.cfg.Events.OnFinish != nil {
			m.cfg.Events.OnFinish(j)
		}
	}
	m.schedule()
}
