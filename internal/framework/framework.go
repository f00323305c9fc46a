// Package framework defines the boundary between Meryn and the
// programming frameworks it hosts (OGE, Hadoop in the paper's prototype).
// The interface deliberately exposes only what the paper assumes an
// unmodified framework can do — add/remove nodes, submit jobs,
// suspend/resume jobs, report progress — because Meryn's extensibility
// argument (§2) rests on leaving framework internals untouched.
//
// Concrete implementations live in the batch (OGE-like), mapreduce
// (Hadoop-like), service and serverless subpackages. Batch, service and
// serverless dedicate each node to one job and share the node table
// Nodes; mapreduce keeps its own slot-bucket table. Service and
// serverless also share the job table Fleets.
//
// A node is named by ID at the boundary, but AddNode hands back the
// framework's own record of it (NodeRef), so a caller that reads a
// node's status repeatedly, such as the platform auditor at every
// barrier, holds that record instead of looking the ID up each time.
// InspectNode is the by-ID read of the same status.
package framework

import (
	"errors"
	"fmt"

	"meryn/internal/sim"
)

// Errors returned by the frameworks' job operations.
var (
	ErrJobExists  = errors.New("framework: job already submitted")
	ErrJobUnknown = errors.New("framework: unknown job")
	ErrJobState   = errors.New("framework: job is not in a valid state for this operation")
	ErrBadJob     = errors.New("framework: invalid job description")
)

// Node is a compute slave attached to a framework: a private VM or a
// leased cloud VM. Frameworks index nodes by kind so the Cluster Manager
// can count and visit free nodes of one kind without rescanning, but
// they must never make scheduling decisions on it — that distinction
// belongs to the Cluster Manager.
type Node struct {
	ID          string
	SpeedFactor float64 // relative CPU speed; execution time = work / speed
	Cloud       bool    // indexed for the Cluster Manager; no scheduling on it
}

// JobState is the lifecycle of a framework job.
type JobState int

// Job lifecycle states.
const (
	JobQueued JobState = iota
	JobRunning
	JobSuspended
	JobDone
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobSuspended:
		return "suspended"
	case JobDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Job is a framework-level work unit, produced by the Cluster Manager's
// template translation (§3.3). Batch frameworks use VMs and Work;
// MapReduce frameworks use the task fields; the service framework uses
// the service shape fields.
type Job struct {
	ID  string
	VMs int // dedicated nodes (batch) / contracted replicas (service)

	// Work is the job's size in reference CPU-seconds: execution time on
	// a SpeedFactor-1.0 node. Used by batch frameworks. The service
	// framework reuses it as the contracted service lifetime in wall
	// seconds (services elapse in real time, not CPU time).
	Work float64

	// MapReduce shape (used by the mapreduce framework).
	MapTasks    int
	ReduceTasks int
	MapWork     float64 // reference seconds per map task
	ReduceWork  float64 // reference seconds per reduce task

	// Service shape (used by the service framework). A service runs one
	// replica per node; the framework maintains Replicas as the current
	// replica count (it starts at VMs and changes with elastic scaling).
	// The serverless framework reuses the same fields with shifted
	// meanings: VMs is the contracted instance ceiling, Replicas the
	// current instance count (it starts at zero and scales with demand),
	// and Work the registered function lifetime in wall seconds.
	Replicas  int                      // current replicas, framework-maintained
	SvcRate   float64                  // requests/s one replica serves at SpeedFactor 1.0
	TargetP95 float64                  // p95 latency objective in seconds (0 = untracked)
	Rate      func(t sim.Time) float64 // offered request rate (open-loop arrivals)

	// Serverless shape (used by the serverless framework, in addition
	// to the service fields above).
	ColdStartS  float64 // boot delay before a fresh instance serves, seconds
	ConcTarget  float64 // autoscaler target: in-flight requests per warm instance
	IdleWindowS float64 // idle seconds before the function scales to zero
	Revision    string  // name of the initial (immutable) revision

	// Lifecycle, maintained by the framework.
	State       JobState
	SubmittedAt sim.Time
	Started     bool     // the job has begun executing at least once
	StartedAt   sim.Time // first time the job began executing
	FinishedAt  sim.Time
	Suspensions int

	// DoneWork is accumulated completed reference-seconds, preserved
	// across suspensions (batch: whole-job progress; mapreduce: completed
	// task work).
	DoneWork float64

	// Owner is the submitter's own record of the job, so a job event
	// reaches it without a lookup by ID. Frameworks never read it.
	Owner any
}

// Events are the notifications a framework emits. All callbacks are
// optional. They fire synchronously inside the simulation event that
// caused them.
type Events struct {
	OnStart   func(*Job) // job began (or re-began after resume) executing
	OnFinish  func(*Job)
	OnSuspend func(*Job)
	OnRequeue func(*Job) // job lost its nodes involuntarily (node failure)
	// OnScale fires when a running job's node set changes without a
	// lifecycle transition (elastic replica growth or shrink, or losing
	// one node of many to a crash). The job keeps running; callers use it
	// to re-open cost/usage accounting segments at the new node set.
	OnScale func(*Job)
}

// NodeStatus is a framework's introspective view of one attached node.
// It exists for invariant auditing: the platform Auditor and the fwtest
// helpers recount the free index per kind from per-node status and
// compare against the maintained index. Busy means the node currently
// hosts work: a batch job, at least one MapReduce task slot, or a
// service replica.
type NodeStatus struct {
	Busy  bool
	Cloud bool
}

// NodeRef is a framework's own record of one attached node, returned
// by AddNode. It reads the node's status without a lookup by ID.
type NodeRef interface {
	// Status reports the node's status, or false once FailNode or
	// RemoveNode has dropped the node.
	Status() (NodeStatus, bool)
}

// Inspector exposes per-node status by ID for auditing: the read for a
// caller that holds no NodeRef (the reference audit, the fwtest
// recounts).
type Inspector interface {
	// InspectNode reports the status of an attached node, or false if
	// the node is not attached. It looks the node up and reads the same
	// status as the NodeRef AddNode returned.
	InspectNode(id string) (NodeStatus, bool)
}

// NodeJobVisitor enumerates the running jobs occupying one node
// without scanning unrelated jobs — the inverse of VisitJobNodes. The
// platform uses it on node loss (crash, revocation) to find the hit
// applications directly.
type NodeJobVisitor interface {
	// VisitNodeJobs calls visit for each distinct running job occupying
	// the node, in a deterministic order (submission order in this
	// repository's frameworks), stopping early when visit returns false.
	// Unknown node IDs visit nothing.
	VisitNodeJobs(nodeID string, visit func(jobID string) bool)
}

// Framework is what the Cluster Manager's generic part drives. All
// methods are synchronous in simulated time; real-world latencies (VM
// boot, daemon configuration) are charged by the callers that wrap them.
type Framework interface {
	Inspector
	NodeJobVisitor

	// Name identifies the framework instance (e.g. "batch-vc1").
	Name() string
	// Image is the VM disk image slaves of this framework boot from.
	Image() string

	// AddNode attaches a slave node and returns the framework's record
	// of it.
	AddNode(Node) NodeRef
	// RemoveNode detaches an idle node. It fails with ErrNodeBusy if
	// the node hosts work.
	RemoveNode(id string) error
	// FailNode forcibly detaches a node (VM crash). Work running on it
	// is lost: batch jobs requeue with their last checkpoint, MapReduce
	// jobs lose the in-flight tasks on that node.
	FailNode(id string) error
	// NumNodes returns the number of attached nodes.
	NumNodes() int
	// FreeNodeCount returns the number of free nodes of one kind
	// (cloud or private) without allocating.
	FreeNodeCount(cloud bool) int
	// VisitFreeNodes calls visit for each free node of one kind in
	// attach order, stopping early when visit returns false. The
	// framework must not be mutated during the visit.
	VisitFreeNodes(cloud bool, visit func(id string) bool)

	// Submit enqueues a job.
	Submit(*Job) error
	// Suspend checkpoints a running job and frees its nodes.
	Suspend(id string) error
	// Resume re-queues a suspended job with priority.
	Resume(id string) error
	// VisitJobNodes calls visit for each node a running job occupies,
	// stopping early when visit returns false. The visit order is
	// framework-specific but deterministic for a given simulation
	// (floating-point aggregation over a run-dependent order would break
	// reproducibility); callers must not rely on any particular order.
	VisitJobNodes(id string, visit func(id string) bool) error
	// Progress returns completed fraction in [0,1].
	Progress(id string) (float64, error)
	// Get looks a job up.
	Get(id string) (*Job, bool)
	// Running lists running jobs in submission order. The returned
	// slice is owned by the framework: callers must not mutate it or
	// retain it across calls that change job state.
	Running() []*Job
	// QueuedJobs lists queued jobs in queue order.
	QueuedJobs() []*Job
}
