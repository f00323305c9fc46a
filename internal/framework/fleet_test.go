package framework_test

import (
	"errors"
	"fmt"
	"testing"

	"meryn/internal/framework"
	"meryn/internal/framework/fwtest"
	"meryn/internal/framework/serverless"
	"meryn/internal/framework/service"
	"meryn/internal/sim"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

// table is a bare fleet table with a recording test harness: it tracks
// attach order for fwtest.CheckIndexes and counts requeues.
type table struct {
	framework.Fleets[int]
	attachOrder []string
	requeues    int
}

func newTable(eng *sim.Engine) *table {
	tb := &table{}
	tb.Init(eng, framework.FleetConfig{Name: "t", Events: framework.Events{
		OnRequeue: func(*framework.Job) { tb.requeues++ },
	}}, func() {})
	return tb
}

func (tb *table) attach(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		tb.Attach(framework.Node{ID: id, SpeedFactor: 1, Cloud: id[0] == 'c'})
		tb.attachOrder = append(tb.attachOrder, id)
	}
	tb.check(t)
}

func (tb *table) check(t *testing.T) {
	t.Helper()
	fwtest.CheckIndexes(t, tb, tb.attachOrder)
}

// start adds a job, takes it off the queue, grows it onto n nodes and
// begins it; its lifetime ends it through End.
func (tb *table) start(t *testing.T, id string, n int, lifetime float64) *framework.Fleet[int] {
	t.Helper()
	f, err := tb.Add(&framework.Job{ID: id, VMs: n, Work: lifetime}, n)
	must(t, err)
	if tb.Queue.PopFront() != f {
		t.Fatalf("%s is not at the front of the queue", id)
	}
	if got := tb.Grow(f, n); got != n {
		t.Fatalf("Grow(%s, %d) got %d nodes", id, n, got)
	}
	tb.Begin(f, func() { tb.End(f) })
	tb.check(t)
	return f
}

func nodesOf(f *framework.Fleet[int]) []string {
	out := make([]string, len(f.Insts))
	for i, in := range f.Insts {
		out[i] = in.Node.ID
	}
	return out
}

func TestFleetEndKeepsReplicas(t *testing.T) {
	eng := sim.NewEngine()
	tb := newTable(eng)
	tb.attach(t, "p0", "p1", "p2")
	f := tb.start(t, "a", 2, 100)
	eng.RunAll()
	j := f.Job
	if j.State != framework.JobDone || j.DoneWork != 100 || sim.ToSeconds(j.FinishedAt) != 100 {
		t.Fatalf("state=%v done=%g finished=%v, want done at 100 s", j.State, j.DoneWork, j.FinishedAt)
	}
	if j.Replicas != 2 || len(f.Insts) != 0 || tb.FreeLen() != 3 {
		t.Fatalf("replicas=%d insts=%d free=%d, want the last fleet size 2 kept, every node free",
			j.Replicas, len(f.Insts), tb.FreeLen())
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending events = %d, want the ticker disarmed", eng.Pending())
	}
	tb.check(t)
}

func TestFleetDuplicateAddLeavesJobUntouched(t *testing.T) {
	eng := sim.NewEngine()
	tb := newTable(eng)
	orig := &framework.Job{ID: "a", VMs: 1, Work: 10}
	f, err := tb.Add(orig, 1)
	must(t, err)
	eng.Run(sim.Seconds(5))
	dup := &framework.Job{ID: "a", VMs: 3, Work: 10, State: framework.JobDone, Replicas: 3}
	if g, err := tb.Add(dup, 3); !errors.Is(err, framework.ErrJobExists) || g != nil {
		t.Fatalf("duplicate Add = %v, %v, want ErrJobExists and no fleet", g, err)
	}
	if dup.State != framework.JobDone || dup.Replicas != 3 || dup.SubmittedAt != 0 {
		t.Fatalf("rejected job changed: %+v", dup)
	}
	if f.Job != orig || f.Target != 1 || tb.Queue.Len() != 1 || orig.State != framework.JobQueued {
		t.Fatalf("registered job changed: target=%d queue=%d state=%v", f.Target, tb.Queue.Len(), orig.State)
	}
}

func TestFleetRequeueBanksLifetimeAtFront(t *testing.T) {
	eng := sim.NewEngine()
	tb := newTable(eng)
	tb.attach(t, "p0", "p1")
	a := tb.start(t, "a", 2, 100)
	_, err := tb.Add(&framework.Job{ID: "b", VMs: 1, Work: 100}, 1)
	must(t, err)
	eng.Run(sim.Seconds(30))

	// Both hosts crash, as a service's FailNode sees it, then the job
	// requeues.
	for _, id := range []string{"p0", "p1"} {
		if f, err := tb.DetachInstance(id); err != nil || f != a {
			t.Fatalf("DetachInstance(%s) = %v, %v, want a's fleet", id, f, err)
		}
	}
	tb.Requeue(a)
	tb.check(t)
	j := a.Job
	if j.State != framework.JobQueued || j.DoneWork != 30 || j.Replicas != 0 || tb.requeues != 1 {
		t.Fatalf("requeue: state=%v done=%g replicas=%d requeues=%d, want queued/30/0/1",
			j.State, j.DoneWork, j.Replicas, tb.requeues)
	}
	if tb.Queue.Len() != 2 || tb.Queue.At(0) != a || len(tb.Running()) != 0 {
		t.Fatalf("queue=%d front=%s running=%d, want a requeued ahead of b and nothing running",
			tb.Queue.Len(), tb.Queue.At(0).Job.ID, len(tb.Running()))
	}
	if p, _ := tb.Progress("a"); p != 0.3 {
		t.Fatalf("progress = %g, want the banked 0.3", p)
	}
	// The finish timer went with the segment: nothing ends a at 100 s.
	eng.Run(sim.Seconds(150))
	if j.State != framework.JobQueued {
		t.Fatalf("state = %v after the old finish time, want still queued", j.State)
	}
}

func TestFleetShrinkPrivateFirstNewestFirst(t *testing.T) {
	eng := sim.NewEngine()
	tb := newTable(eng)
	tb.attach(t, "p0", "c0", "p1", "c1", "p2")
	f := tb.start(t, "a", 5, 100)

	for _, k := range []int{0, 5, 6} {
		if _, err := tb.Shrink("a", k); !errors.Is(err, framework.ErrJobState) {
			t.Fatalf("Shrink(a, %d) with 5 instances = %v, want ErrJobState", k, err)
		}
	}
	if _, err := tb.Shrink("ghost", 1); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("Shrink(ghost) = %v, want ErrJobUnknown", err)
	}

	g, err := tb.Shrink("a", 2)
	must(t, err)
	if g != f || fmt.Sprint(nodesOf(f)) != "[p0 c0 c1]" || f.Target != 3 || f.Job.Replicas != 3 {
		t.Fatalf("after Shrink 2: nodes=%v target=%d replicas=%d, want [p0 c0 c1] with target 3",
			nodesOf(f), f.Target, f.Job.Replicas)
	}
	tb.check(t)
	if free := fwtest.FreeNodes(tb, false); fmt.Sprint(free) != "[p1 p2]" || tb.FreeLen() != 2 {
		t.Fatalf("freed %v of %d, want the newest private hosts [p1 p2]", free, tb.FreeLen())
	}

	// The private pass runs dry and the cloud pass takes the newest lease.
	_, err = tb.Shrink("a", 2)
	must(t, err)
	if fmt.Sprint(nodesOf(f)) != "[c0]" {
		t.Fatalf("after Shrink 2 more: nodes=%v, want [c0]", nodesOf(f))
	}
	tb.check(t)
	if _, err := tb.Shrink("a", 1); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("Shrink of the last instance = %v, want ErrJobState", err)
	}
	if private, cloud, err := tb.ReplicaKinds("a"); err != nil || private != 0 || cloud != 1 {
		t.Fatalf("ReplicaKinds = %d/%d/%v, want 0 private, 1 cloud", private, cloud, err)
	}
}

func TestFleetDetachInstance(t *testing.T) {
	eng := sim.NewEngine()
	tb := newTable(eng)
	tb.attach(t, "p0", "p1", "p2", "p3")
	f := tb.start(t, "a", 3, 100)

	if g, err := tb.DetachInstance("p3"); g != nil || err != nil {
		t.Fatalf("DetachInstance(idle p3) = %v, %v, want no fleet and no error", g, err)
	}
	tb.check(t)
	if _, err := tb.DetachInstance("ghost"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("DetachInstance(ghost) = %v, want ErrNodeUnknown", err)
	}
	g, err := tb.DetachInstance("p1")
	must(t, err)
	if g != f || fmt.Sprint(nodesOf(f)) != "[p0 p2]" || f.Job.Replicas != 2 || f.Job.State != framework.JobRunning {
		t.Fatalf("after detaching p1: nodes=%v replicas=%d state=%v, want [p0 p2] still running",
			nodesOf(f), f.Job.Replicas, f.Job.State)
	}
	tb.check(t)
}

func TestFleetSuspendResumeRestoreStartTarget(t *testing.T) {
	eng := sim.NewEngine()
	tb := newTable(eng)
	tb.attach(t, "p0", "p1", "p2")
	f := tb.start(t, "a", 2, 100)
	f.Target = 3
	eng.Run(sim.Seconds(40))

	must(t, tb.Suspend("a"))
	tb.check(t)
	j := f.Job
	if j.State != framework.JobSuspended || j.DoneWork != 40 || j.Replicas != 0 || f.Target != 2 || tb.FreeLen() != 3 {
		t.Fatalf("suspend: state=%v done=%g replicas=%d target=%d free=%d",
			j.State, j.DoneWork, j.Replicas, f.Target, tb.FreeLen())
	}
	if err := tb.Suspend("a"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("double Suspend = %v, want ErrJobState", err)
	}
	visited := 0
	tb.VisitSuspended(func(g *framework.Fleet[int]) {
		if g != f {
			t.Fatalf("visited %s, want a", g.Job.ID)
		}
		visited++
	})
	if visited != 1 {
		t.Fatalf("VisitSuspended visited %d fleets, want 1", visited)
	}

	must(t, tb.Resume("a"))
	if j.State != framework.JobQueued || tb.Queue.At(0) != f || f.Target != 2 {
		t.Fatalf("resume: state=%v target=%d, want queued at the front at the start target", j.State, f.Target)
	}
	if err := tb.Resume("a"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("double Resume = %v, want ErrJobState", err)
	}
}

func TestFleetSLOAccounting(t *testing.T) {
	f := &framework.Fleet[int]{Job: &framework.Job{TargetP95: 1}}
	f.Record(0.5)
	f.Record(2)
	f.Down()
	if f.Intervals != 3 || f.Burned != 2 || f.RollingP95() != 2 {
		t.Fatalf("intervals=%d burned=%d rolling=%g, want 3/2/2", f.Intervals, f.Burned, f.RollingP95())
	}
	// The window keeps the six latest samples: the 2 s sample ages out.
	for i := 0; i < 6; i++ {
		f.Record(0.25)
	}
	if got := f.RollingP95(); got != 0.25 {
		t.Fatalf("rolling p95 = %g after the window turned over, want 0.25", got)
	}
	if r := f.OfferedRate(0); r != 0 {
		t.Fatalf("nil rate offered %g, want 0", r)
	}
	f.Job.Rate = func(sim.Time) float64 { return -3 }
	if r := f.OfferedRate(0); r != 0 {
		t.Fatalf("negative rate offered %g, want 0", r)
	}
}

// fleetFramework is what the cross-framework cases drive.
type fleetFramework interface {
	framework.Framework
	TargetOf(id string) (int, error)
}

// fleetCases builds the two fleet frameworks with a job shape each: a
// service of n replicas, or a function with ceiling n that boots in 5 s;
// both offer a constant 5 req/s against 10 req/s per instance.
var fleetCases = []struct {
	name string
	new  func(*sim.Engine) fleetFramework
	job  func(id string, n int, lifetime float64) *framework.Job
	// slo reads a job's evaluated and burned SLO intervals.
	slo func(fw fleetFramework, id string) (intervals, burned int, err error)
}{
	{
		name: "service",
		new: func(eng *sim.Engine) fleetFramework {
			return service.New(eng, service.Config{Tick: sim.Seconds(10)})
		},
		job: func(id string, n int, lifetime float64) *framework.Job {
			return &framework.Job{ID: id, VMs: n, SvcRate: 10, Work: lifetime,
				Rate: func(sim.Time) float64 { return 5 }}
		},
		slo: func(fw fleetFramework, id string) (int, int, error) {
			st, err := fw.(*service.Service).ServiceStats(id)
			return st.Intervals, st.Burned, err
		},
	},
	{
		name: "serverless",
		new: func(eng *sim.Engine) fleetFramework {
			return serverless.New(eng, serverless.Config{Tick: sim.Seconds(10)})
		},
		job: func(id string, n int, lifetime float64) *framework.Job {
			return &framework.Job{ID: id, VMs: n, SvcRate: 10, Work: lifetime, ColdStartS: 5,
				Rate: func(sim.Time) float64 { return 5 }}
		},
		slo: func(fw fleetFramework, id string) (int, int, error) {
			st, err := fw.(*serverless.Serverless).FunctionStats(id)
			return st.Intervals, st.Burned, err
		},
	},
}

func addNodes(fw framework.Framework, n int) {
	for i := 0; i < n; i++ {
		fw.AddNode(framework.Node{ID: fmt.Sprintf("n%02d", i), SpeedFactor: 1})
	}
}

// TestTickerStopsWhenDrained: once the last job settles, the engine has
// nothing pending. A job added later re-arms the ticker one tick after
// its Add, and a job added while the ticker runs shares it: one tick per
// interval.
func TestTickerStopsWhenDrained(t *testing.T) {
	for _, tc := range fleetCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fw := tc.new(eng)
			addNodes(fw, 2)
			j := tc.job("a", 2, 100)
			must(t, fw.Submit(j))
			end := eng.RunAll()
			if j.State != framework.JobDone || sim.ToSeconds(end) != 100 {
				t.Fatalf("state=%v at %v, want done at the 100 s lifetime", j.State, end)
			}
			if eng.Pending() != 0 {
				t.Fatalf("pending events = %d, want drained queue", eng.Pending())
			}

			eng.Run(sim.Seconds(103))
			must(t, fw.Submit(tc.job("b", 1, 95)))
			eng.Run(sim.Seconds(108))
			must(t, fw.Submit(tc.job("c", 1, 50)))
			for _, c := range []struct {
				at    float64
				ticks int
			}{{112.5, 0}, {113, 1}, {143, 4}} {
				eng.Run(sim.Seconds(c.at))
				for _, id := range []string{"b", "c"} {
					if n, _, err := tc.slo(fw, id); err != nil || n != c.ticks {
						t.Fatalf("%s at %g s: %d intervals (%v), want %d", id, c.at, n, err, c.ticks)
					}
				}
			}
			// b settles last, between ticks: no tick outlives it.
			if end := eng.RunAll(); sim.ToSeconds(end) != 198 || eng.Pending() != 0 {
				t.Fatalf("drained at %v with %d pending, want 198 s and none", end, eng.Pending())
			}
		})
	}
}

// TestSuspendedJobBurnsEveryTick: beside a running job, a suspended job
// is down, so it burns an interval on every tick.
func TestSuspendedJobBurnsEveryTick(t *testing.T) {
	for _, tc := range fleetCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fw := tc.new(eng)
			addNodes(fw, 2)
			a, b := tc.job("a", 1, 1000), tc.job("b", 1, 1000)
			must(t, fw.Submit(a))
			must(t, fw.Submit(b))
			eng.Run(sim.Seconds(5))
			must(t, fw.Suspend("b"))
			eng.Run(sim.Seconds(45)) // ticks at 10, 20, 30 and 40 s
			if a.State != framework.JobRunning || b.State != framework.JobSuspended {
				t.Fatalf("a %v, b %v, want a running and b suspended", a.State, b.State)
			}
			if n, burned, err := tc.slo(fw, "b"); err != nil || n != 4 || burned != 4 {
				t.Fatalf("b: %d intervals, %d burned (%v), want 4 and 4", n, burned, err)
			}
		})
	}
}

func TestRunningListSubmissionOrder(t *testing.T) {
	for _, tc := range fleetCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fw := tc.new(eng)
			addNodes(fw, 12)
			for _, id := range []string{"app-2", "app-10", "app-1"} {
				must(t, fw.Submit(tc.job(id, 1, 500)))
			}
			got := fw.Running()
			ids := make([]string, len(got))
			for i, j := range got {
				ids[i] = j.ID
			}
			if fmt.Sprint(ids) != "[app-2 app-10 app-1]" {
				t.Fatalf("Running() = %v, want submission order [app-2 app-10 app-1]", ids)
			}
		})
	}
}

// TestFinishedJobKeepsReplicas pins what the ledger and session digest
// read: a settled service or function reports its last fleet size.
func TestFinishedJobKeepsReplicas(t *testing.T) {
	for _, tc := range fleetCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fw := tc.new(eng)
			addNodes(fw, 2)
			j := tc.job("a", 2, 100)
			must(t, fw.Submit(j))
			eng.Run(sim.Seconds(99))
			last := j.Replicas
			if last == 0 {
				t.Fatal("no replicas before the lifetime ends")
			}
			eng.RunAll()
			if j.State != framework.JobDone || j.Replicas != last || fw.FreeNodeCount(false) != 2 {
				t.Fatalf("state=%v replicas=%d free=%d, want done keeping %d with both nodes free",
					j.State, j.Replicas, fw.FreeNodeCount(false), last)
			}
		})
	}
}

// TestDuplicateSubmitLeavesJobUntouched checks both frameworks reject a
// second job under a registered ID before changing it — the serverless
// defaults included.
func TestDuplicateSubmitLeavesJobUntouched(t *testing.T) {
	for _, tc := range fleetCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fw := tc.new(eng)
			must(t, fw.Submit(tc.job("a", 2, 100)))
			eng.Run(sim.Seconds(5))
			dup := tc.job("a", 3, 100)
			dup.State, dup.Replicas = framework.JobDone, 3
			if err := fw.Submit(dup); !errors.Is(err, framework.ErrJobExists) {
				t.Fatalf("duplicate Submit = %v, want ErrJobExists", err)
			}
			if dup.State != framework.JobDone || dup.Replicas != 3 || dup.SubmittedAt != 0 ||
				dup.ConcTarget != 0 || dup.IdleWindowS != 0 || dup.Revision != "" {
				t.Fatalf("rejected job changed: %+v", dup)
			}
			if tgt, err := fw.TargetOf("a"); err != nil || tgt == 3 {
				t.Fatalf("TargetOf(a) = %d, %v, want the registered job's target", tgt, err)
			}
		})
	}
}
