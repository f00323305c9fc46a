package service

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"meryn/internal/framework"
	"meryn/internal/framework/fwtest"
	"meryn/internal/sim"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func addNodes(s *Service, n int, speed float64) {
	for i := 0; i < n; i++ {
		s.AddNode(framework.Node{ID: fmt.Sprintf("n%02d", i), SpeedFactor: speed})
	}
}

// svc builds a service job: replicas nodes, rate req/s per replica,
// lifetime seconds, constant offered load.
func svc(id string, replicas int, rate, lifetime, offered float64) *framework.Job {
	return &framework.Job{
		ID: id, VMs: replicas, SvcRate: rate, Work: lifetime,
		Rate: func(sim.Time) float64 { return offered },
	}
}

func TestServiceRunsForLifetime(t *testing.T) {
	eng := sim.NewEngine()
	var started, finished []*framework.Job
	s := New(eng, Config{Name: "svc", Events: framework.Events{
		OnStart:  func(j *framework.Job) { started = append(started, j) },
		OnFinish: func(j *framework.Job) { finished = append(finished, j) },
	}})
	addNodes(s, 3, 1.0)
	j := svc("web", 2, 10, 600, 5)
	must(t, s.Submit(j))

	if j.State != framework.JobRunning || j.Replicas != 2 {
		t.Fatalf("after submit: state=%v replicas=%d, want running/2", j.State, j.Replicas)
	}
	if len(started) != 1 {
		t.Fatalf("OnStart fired %d times, want 1", len(started))
	}
	nodes, err := fwtest.JobNodes(s, "web")
	must(t, err)
	if len(nodes) != 2 {
		t.Fatalf("job nodes = %v, want 2 nodes", nodes)
	}
	if free := s.FreeLen(); free != 1 {
		t.Fatalf("free = %d, want 1 node", free)
	}

	end := eng.RunAll()
	if j.State != framework.JobDone || len(finished) != 1 {
		t.Fatalf("state=%v finished=%d, want done/1", j.State, len(finished))
	}
	if got := sim.ToSeconds(end); got != 600 {
		t.Fatalf("service ended at %.0f s, want 600", got)
	}
	if free := s.FreeLen(); free != 3 {
		t.Fatalf("free after finish = %d, want all 3", free)
	}
}

func TestServiceWaitsForContractedReplicas(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	addNodes(s, 1, 1.0)
	j := svc("web", 3, 10, 600, 5)
	must(t, s.Submit(j))
	if j.State != framework.JobQueued {
		t.Fatalf("state=%v, want queued with 1 of 3 nodes", j.State)
	}
	s.AddNode(framework.Node{ID: "x1", SpeedFactor: 1.0})
	s.AddNode(framework.Node{ID: "x2", SpeedFactor: 1.0})
	if j.State != framework.JobRunning || j.Replicas != 3 {
		t.Fatalf("state=%v replicas=%d, want running/3 after capacity arrived", j.State, j.Replicas)
	}
}

func TestGrowthTowardTargetAndShrink(t *testing.T) {
	eng := sim.NewEngine()
	var scales int
	s := New(eng, Config{Events: framework.Events{
		OnScale: func(*framework.Job) { scales++ },
	}})
	addNodes(s, 2, 1.0)
	j := svc("web", 2, 10, 600, 5)
	must(t, s.Submit(j))

	// Raise the target beyond current capacity: growth waits for nodes.
	must(t, s.SetTargetReplicas("web", 4))
	if j.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2 (no free nodes yet)", j.Replicas)
	}
	s.AddNode(framework.Node{ID: "x0", SpeedFactor: 1.0})
	s.AddNode(framework.Node{ID: "x1", SpeedFactor: 1.0})
	if j.Replicas != 4 || scales == 0 {
		t.Fatalf("replicas = %d (scales %d), want growth to 4 with OnScale", j.Replicas, scales)
	}

	// Shrink releases immediately, newest assignment first.
	before := scales
	must(t, s.SetTargetReplicas("web", 2))
	if j.Replicas != 2 || scales == before {
		t.Fatalf("replicas = %d, want immediate shrink to 2 with OnScale", j.Replicas)
	}
	free := fwtest.FreeNodes(s, false)
	if len(free) != 2 || free[0] != "x0" || free[1] != "x1" {
		t.Fatalf("freed = %v, want the newest assignments [x0 x1]", free)
	}
}

func TestShrinkReclaimsAndHoldsTarget(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	addNodes(s, 4, 1.0)
	j := svc("web", 4, 10, 600, 5)
	must(t, s.Submit(j))

	must(t, s.Shrink("web", 2))
	if j.Replicas != 2 {
		t.Fatalf("replicas = %d, want 2 after reclaim", j.Replicas)
	}
	tgt, err := s.TargetOf("web")
	must(t, err)
	if tgt != 2 {
		t.Fatalf("target = %d, want 2 (reclaim lowers it)", tgt)
	}
	// The freed nodes must not be re-grabbed by a scheduling pass.
	s.schedule()
	if j.Replicas != 2 || s.FreeLen() != 2 {
		t.Fatalf("replicas=%d free=%d, want the reclaim to stick", j.Replicas, s.FreeLen())
	}
	// Shrinking below one replica is refused.
	if err := s.Shrink("web", 2); err == nil {
		t.Fatal("Shrink below 1 replica succeeded")
	}
}

func TestLatencyModelAndBurnAccounting(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 2, 1.0)
	// 2 replicas x 10 req/s = 20 req/s capacity; offered 10 => rho 0.5,
	// S0 = 0.1 s, p95 = 3*0.1/0.5 = 0.6 s. Target 1 s: clean.
	j := svc("web", 2, 10, 100, 10)
	j.TargetP95 = 1.0
	must(t, s.Submit(j))
	eng.Run(sim.Seconds(95))
	st, err := s.ServiceStats("web")
	must(t, err)
	if math.Abs(st.P95-0.6) > 1e-9 {
		t.Fatalf("p95 = %g, want 0.6", st.P95)
	}
	if st.Intervals == 0 || st.Burned != 0 {
		t.Fatalf("intervals=%d burned=%d, want >0 clean intervals", st.Intervals, st.Burned)
	}

	// Saturate: offered 25 > capacity 20 => p95 Inf => burns every tick.
	eng2 := sim.NewEngine()
	s2 := New(eng2, Config{Tick: sim.Seconds(10)})
	addNodes(s2, 2, 1.0)
	j2 := svc("hot", 2, 10, 100, 25)
	j2.TargetP95 = 1.0
	must(t, s2.Submit(j2))
	eng2.Run(sim.Seconds(95))
	st2, err := s2.ServiceStats("hot")
	must(t, err)
	if st2.Burned != st2.Intervals || st2.Burned == 0 {
		t.Fatalf("saturated service: burned=%d intervals=%d, want all burned", st2.Burned, st2.Intervals)
	}
	if !math.IsInf(st2.P95, 1) {
		t.Fatalf("saturated p95 = %g, want +Inf", st2.P95)
	}
}

func TestQueuedServiceBurnsIntervals(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	j := svc("web", 2, 10, 100, 5)
	j.TargetP95 = 1.0
	must(t, s.Submit(j)) // no nodes: queued
	eng.Run(sim.Seconds(55))
	st, err := s.ServiceStats("web")
	must(t, err)
	if st.Intervals == 0 || st.Burned != st.Intervals {
		t.Fatalf("queued service: burned=%d intervals=%d, want full burn", st.Burned, st.Intervals)
	}
}

func TestSuspendResumePreservesLifetime(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	addNodes(s, 2, 1.0)
	j := svc("web", 2, 10, 600, 5)
	must(t, s.Submit(j))
	eng.Run(sim.Seconds(200))
	must(t, s.Suspend("web"))
	if j.State != framework.JobSuspended || j.DoneWork != 200 || j.Replicas != 0 {
		t.Fatalf("suspend: state=%v done=%g replicas=%d", j.State, j.DoneWork, j.Replicas)
	}
	if free := s.FreeLen(); free != 2 {
		t.Fatalf("free after suspend = %d, want 2", free)
	}
	eng.Run(sim.Seconds(300))
	must(t, s.Resume("web"))
	end := eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v, want done", j.State)
	}
	// 200 s served + 100 s suspended gap + remaining 400 s = ends at 700.
	if got := sim.ToSeconds(end); got != 700 {
		t.Fatalf("ended at %.0f s, want 700 (400 s remaining after resume)", got)
	}
}

func TestFailNodeSurvivesOnRemainingReplicas(t *testing.T) {
	eng := sim.NewEngine()
	var scales, requeues int
	s := New(eng, Config{Events: framework.Events{
		OnScale:   func(*framework.Job) { scales++ },
		OnRequeue: func(*framework.Job) { requeues++ },
	}})
	addNodes(s, 2, 1.0)
	j := svc("web", 2, 10, 600, 5)
	must(t, s.Submit(j))
	nodes, _ := fwtest.JobNodes(s, "web")

	must(t, s.FailNode(nodes[0]))
	if j.State != framework.JobRunning || j.Replicas != 1 {
		t.Fatalf("after crash: state=%v replicas=%d, want running/1", j.State, j.Replicas)
	}
	if scales != 1 || requeues != 0 {
		t.Fatalf("scales=%d requeues=%d, want scale-only notification", scales, requeues)
	}

	// Losing the last replica takes the service down: requeue at front.
	must(t, s.FailNode(nodes[1]))
	if j.State != framework.JobQueued || requeues != 1 {
		t.Fatalf("after last crash: state=%v requeues=%d, want queued/1", j.State, requeues)
	}
	// Replacement capacity restarts it with lifetime preserved.
	s.AddNode(framework.Node{ID: "r0", SpeedFactor: 1.0})
	s.AddNode(framework.Node{ID: "r1", SpeedFactor: 1.0})
	if j.State != framework.JobRunning {
		t.Fatalf("state=%v, want restarted", j.State)
	}
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state=%v, want done", j.State)
	}
}

func TestSubmitValidation(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	cases := []*framework.Job{
		{ID: "", VMs: 1, SvcRate: 1, Work: 10},
		{ID: "a", VMs: 0, SvcRate: 1, Work: 10},
		{ID: "b", VMs: 1, SvcRate: 0, Work: 10},
		{ID: "c", VMs: 1, SvcRate: 1, Work: 0},
	}
	for _, j := range cases {
		if err := s.Submit(j); err == nil {
			t.Fatalf("Submit(%+v) succeeded, want error", j)
		}
	}
	good := svc("ok", 1, 1, 10, 0)
	must(t, s.Submit(good))
	if err := s.Submit(svc("ok", 1, 1, 10, 0)); err == nil {
		t.Fatal("duplicate Submit succeeded")
	}
}

// TestDrainFlowForVMExchange runs the Cluster Manager's flow from paper
// §3.4: suspend the victim, remove the nodes that are free, and a node
// still hosting a replica refuses removal.
func TestDrainFlowForVMExchange(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	addNodes(s, 3, 1.0)
	must(t, s.Submit(svc("web", 2, 10, 600, 5)))
	must(t, s.Submit(svc("api", 1, 10, 600, 5)))

	nodes, err := fwtest.JobNodes(s, "web")
	must(t, err)
	must(t, s.Suspend("web"))
	if free := fwtest.FreeNodes(s, false); fmt.Sprint(free) != fmt.Sprint(nodes) {
		t.Fatalf("free after suspension = %v, want the victim's %v", free, nodes)
	}
	for _, id := range nodes {
		must(t, s.RemoveNode(id))
	}
	if err := s.RemoveNode("n02"); !errors.Is(err, framework.ErrNodeBusy) {
		t.Fatalf("RemoveNode of the api replica host = %v, want ErrNodeBusy", err)
	}
	if s.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", s.NumNodes())
	}
}

// checkNodeIndexes compares the maintained free index against a
// brute-force recomputation from per-node status — the shared fwtest
// check all three frameworks use.
func checkNodeIndexes(t *testing.T, s *Service, attachOrder []string) {
	t.Helper()
	fwtest.CheckIndexes(t, s, attachOrder)
}

// TestFreeNodeIndexConsistency drives the index through every node/job
// transition — add, start, grow, shrink, suspend, resume, fail, remove,
// finish — verifying it against a full rescan after each step: the same
// lifecycle coverage as the batch and mapreduce index tests, plus the
// service-only scale transitions.
func TestFreeNodeIndexConsistency(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	var attachOrder []string
	add := func(id string, cloud bool) {
		s.AddNode(framework.Node{ID: id, SpeedFactor: 1.0, Cloud: cloud})
		attachOrder = append(attachOrder, id)
	}
	check := func(step string) {
		t.Helper()
		checkNodeIndexes(t, s, attachOrder)
		if t.Failed() {
			t.Fatalf("inconsistent after %s", step)
		}
	}

	add("p0", false)
	add("c0", true)
	add("p1", false)
	add("c1", true)
	add("p2", false)
	check("add 5 nodes")

	j1 := svc("s1", 2, 10, 1000, 5)
	must(t, s.Submit(j1)) // takes p0, c0
	j2 := svc("s2", 1, 10, 1000, 5)
	must(t, s.Submit(j2)) // takes p1
	check("start s1 s2")

	must(t, s.SetTargetReplicas("s1", 4)) // grows onto c1, p2
	if j1.Replicas != 4 {
		t.Fatalf("s1 replicas = %d, want 4", j1.Replicas)
	}
	check("grow s1 to 4")

	must(t, s.Shrink("s1", 2)) // releases p2, c1 (newest first)
	check("shrink s1 to 2")

	must(t, s.Suspend("s1")) // frees p0 and c0
	check("suspend s1")

	must(t, s.Resume("s1")) // restarts on p0, c0
	eng.Run(sim.Seconds(1))
	check("resume s1")

	// s1 survives the crash on c0 and immediately re-grows onto c1, the
	// first free node in attach order, chasing its pre-crash target of 2.
	must(t, s.FailNode("p0"))
	attachOrder = []string{"c0", "p1", "c1", "p2"}
	if j1.State != framework.JobRunning || j1.Replicas != 2 {
		t.Fatalf("s1 state=%v replicas=%d, want running/2 (re-grown)", j1.State, j1.Replicas)
	}
	if nodes, _ := fwtest.JobNodes(s, "s1"); fmt.Sprint(nodes) != "[c0 c1]" {
		t.Fatalf("s1 runs on %v, want [c0 c1]", nodes)
	}
	check("fail p0")

	must(t, s.RemoveNode("p2")) // the one free node left
	attachOrder = []string{"c0", "p1", "c1"}
	check("remove p2")

	eng.RunAll() // both services run out their lifetimes
	if j1.State != framework.JobDone || j2.State != framework.JobDone {
		t.Fatalf("states = %v/%v, want done/done", j1.State, j2.State)
	}
	check("run to completion")

	if got := s.FreeLen(); got != 3 {
		t.Fatalf("free at end = %d, want all 3", got)
	}
}
