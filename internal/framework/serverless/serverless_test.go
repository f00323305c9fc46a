package serverless

import (
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

func addNodes(s *Serverless, n int, speed float64) {
	for i := 0; i < n; i++ {
		s.AddNode(framework.Node{ID: fmt.Sprintf("n%02d", i), SpeedFactor: speed})
	}
}

// fn builds a function job: ceiling instances, rate req/s per instance,
// lifetime seconds, cold-start delay, constant offered load.
func fn(id string, ceiling int, rate, lifetime, cold, offered float64) *framework.Job {
	return &framework.Job{
		ID: id, VMs: ceiling, SvcRate: rate, Work: lifetime,
		ColdStartS: cold, IdleWindowS: 1e9, // no scale-to-zero unless the test wants it
		Rate: func(sim.Time) float64 { return offered },
	}
}

func stats(t *testing.T, s *Serverless, id string) Stats {
	t.Helper()
	st, err := s.FunctionStats(id)
	must(t, err)
	return st
}

func TestFunctionLaunchesColdAndActivates(t *testing.T) {
	eng := sim.NewEngine()
	var started, finished int
	s := New(eng, Config{Name: "fn", Tick: sim.Seconds(10), Events: framework.Events{
		OnStart:  func(*framework.Job) { started++ },
		OnFinish: func(*framework.Job) { finished++ },
	}})
	addNodes(s, 4, 1.0)
	j := fn("f", 4, 10, 600, 5, 5)
	must(t, s.Submit(j))

	// Launches cold: running immediately, but with zero instances — every
	// node stays free until demand arrives.
	if j.State != framework.JobRunning || j.Replicas != 0 || started != 1 {
		t.Fatalf("after submit: state=%v replicas=%d starts=%d, want running/0/1", j.State, j.Replicas, started)
	}
	if free := s.FreeLen(); free != 4 {
		t.Fatalf("free = %d, want all 4 (cold function holds nothing)", free)
	}

	// The first tick with demand activates it: instances boot cold.
	eng.Run(sim.Seconds(15))
	st := stats(t, s, "f")
	if st.Activations != 1 || st.Instances == 0 || st.ColdStarts == 0 {
		t.Fatalf("after first tick: activations=%d instances=%d coldStarts=%d, want 1/>0/>0",
			st.Activations, st.Instances, st.ColdStarts)
	}
	if st.ColdStartDelayS != float64(st.ColdStarts)*5 {
		t.Fatalf("coldDelay = %g with %d cold starts, want %g",
			st.ColdStartDelayS, st.ColdStarts, float64(st.ColdStarts)*5)
	}

	eng.Run(sim.Seconds(100))
	if got := stats(t, s, "f").Served; got == 0 {
		t.Fatal("no requests served after warm-up")
	}

	end := eng.RunAll()
	if j.State != framework.JobDone || finished != 1 {
		t.Fatalf("state=%v finished=%d, want done/1", j.State, finished)
	}
	if got := sim.ToSeconds(end); got != 600 {
		t.Fatalf("function ended at %.0f s, want the 600 s contracted lifetime", got)
	}
	if free := s.FreeLen(); free != 4 {
		t.Fatalf("free after finish = %d, want all 4", free)
	}
}

func TestScaleToZeroAndReactivation(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 4, 1.0)
	// Demand for the first 100 s, a dead gap, then demand again at 300 s.
	j := fn("f", 4, 10, 600, 5, 0)
	j.IdleWindowS = 30
	j.Rate = func(t sim.Time) float64 {
		if t < sim.Seconds(100) || t >= sim.Seconds(300) {
			return 5
		}
		return 0
	}
	must(t, s.Submit(j))

	// Mid-gap: the idle window has elapsed, the fleet is gone and the
	// nodes are back in the free index — zero footprint while idle.
	eng.Run(sim.Seconds(200))
	st := stats(t, s, "f")
	if st.Instances != 0 || st.ZeroScales != 1 || j.Replicas != 0 {
		t.Fatalf("mid-gap: instances=%d zeroScales=%d replicas=%d, want 0/1/0",
			st.Instances, st.ZeroScales, j.Replicas)
	}
	if free := s.FreeLen(); free != 4 {
		t.Fatalf("free mid-gap = %d, want all 4", free)
	}
	if st.Activations != 1 {
		t.Fatalf("activations = %d, want 1 before the second episode", st.Activations)
	}

	// Demand returns: a second scale-from-zero episode.
	eng.Run(sim.Seconds(320))
	st = stats(t, s, "f")
	if st.Activations != 2 || st.Instances == 0 {
		t.Fatalf("after reactivation: activations=%d instances=%d, want 2/>0", st.Activations, st.Instances)
	}
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v, want done", j.State)
	}
}

func TestColdStartChargedAgainstSLO(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 2, 1.0)
	// 25 s boot: ticks 10/20/30 burn (all-cold, then booting), tick 40+
	// are clean once the fleet is warm (rho 0.25 => p95 0.4 s).
	j := fn("f", 2, 10, 200, 25, 5)
	j.TargetP95 = 1.0
	must(t, s.Submit(j))

	// Between ticks, mid-boot: the p95 is the remaining boot delay plus
	// the base sojourn — instances assigned at t=10 warm at t=35, so at
	// t=25 requests face 10 s of queueing plus 0.3 s of service.
	eng.Run(sim.Seconds(25))
	st := stats(t, s, "f")
	if st.Warm != 0 || math.Abs(st.P95-10.3) > 1e-9 {
		t.Fatalf("mid-boot: warm=%d p95=%g, want 0 warm and p95 10.3", st.Warm, st.P95)
	}

	eng.Run(sim.Seconds(95))
	st = stats(t, s, "f")
	if st.Burned != 3 {
		t.Fatalf("burned = %d, want exactly the 3 cold ticks charged", st.Burned)
	}
	if st.Intervals != 9 {
		t.Fatalf("intervals = %d, want 9 evaluated ticks", st.Intervals)
	}
	if st.ColdStarts != 2 || st.ColdStartDelayS != 50 {
		t.Fatalf("coldStarts=%d delay=%g, want 2 boots and 50 s charged", st.ColdStarts, st.ColdStartDelayS)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue = %g, want the backlog drained once warm", st.QueueDepth)
	}
}

func TestCanarySplitQuotasAndPromotion(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 10, 1.0)
	j := fn("f", 10, 10, 600, 0, 10) // instant boot keeps the math exact
	must(t, s.Submit(j))
	must(t, s.SetTargetInstances("f", 10))
	if j.Replicas != 10 {
		t.Fatalf("replicas = %d, want the pinned fleet of 10", j.Replicas)
	}

	// A fresh revision deploys at weight zero and takes nothing.
	must(t, s.DeployRevision("f", "v2"))
	if err := s.DeployRevision("f", "v2"); err == nil {
		t.Fatal("duplicate DeployRevision succeeded")
	}
	revs, err := s.Revisions("f")
	must(t, err)
	if len(revs) != 2 || revs[0].Instances != 10 || revs[1].Instances != 0 || revs[1].Weight != 0 {
		t.Fatalf("after deploy: %+v, want all 10 instances still on rev-1", revs)
	}

	// Canary 90/10: largest-remainder quota moves exactly one instance,
	// and the flip re-boots it — a cold start charged to v2.
	before := stats(t, s, "f").ColdStarts
	must(t, s.SetTrafficSplit("f", map[string]int{"rev-1": 90, "v2": 10}))
	revs, err = s.Revisions("f")
	must(t, err)
	if revs[0].Instances != 9 || revs[1].Instances != 1 {
		t.Fatalf("canary quotas = %d/%d, want 9/1", revs[0].Instances, revs[1].Instances)
	}
	if revs[1].ColdStarts != 1 || stats(t, s, "f").ColdStarts != before+1 {
		t.Fatalf("flip charged %d cold starts to v2 (fn %d->%d), want 1",
			revs[1].ColdStarts, before, stats(t, s, "f").ColdStarts)
	}

	// One tick of traffic splits request tallies 90/10, deterministically.
	// (The tick also lets the autoscaler right-size the pinned fleet —
	// the tally split depends only on weights, not instance counts.)
	eng.Run(sim.Seconds(15))
	revs, err = s.Revisions("f")
	must(t, err)
	if revs[0].Requests != 90 || revs[1].Requests != 10 {
		t.Fatalf("tallies = %g/%g, want 90/10 of the 100 served", revs[0].Requests, revs[1].Requests)
	}

	// Promotion: unnamed revisions drop to zero weight, the whole fleet
	// flips to v2.
	must(t, s.SetTrafficSplit("f", map[string]int{"v2": 100}))
	revs, err = s.Revisions("f")
	must(t, err)
	fleet := stats(t, s, "f").Instances
	if revs[0].Weight != 0 || revs[0].Instances != 0 || revs[1].Instances != fleet || fleet == 0 {
		t.Fatalf("after promote: %+v (fleet %d), want every instance on v2", revs, fleet)
	}

	// Split validation: unknown revision, negative weight, zero sum.
	for name, w := range map[string]map[string]int{
		"unknown":  {"ghost": 100},
		"negative": {"v2": -1},
		"zero-sum": {"v2": 0, "rev-1": 0},
	} {
		if err := s.SetTrafficSplit("f", w); err == nil {
			t.Fatalf("SetTrafficSplit(%s) succeeded, want error", name)
		}
	}
	if err := s.DeployRevision("f", ""); err == nil {
		t.Fatal("empty revision name accepted")
	}

	eng.RunAll()
	if err := s.DeployRevision("f", "v3"); err == nil {
		t.Fatal("DeployRevision on a settled function succeeded")
	}
}

// TestGrowthFollowsTrafficSplit boots a whole fleet in one scheduling
// pass under a 50/50 split: each new instance joins the revision with
// the largest quota deficit counting the instances booted before it in
// the same pass, so the fleet splits evenly and each revision pays its
// own cold starts.
func TestGrowthFollowsTrafficSplit(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 4, 1.0)
	must(t, s.Submit(fn("f", 4, 10, 600, 5, 0)))
	must(t, s.DeployRevision("f", "v2"))
	must(t, s.SetTrafficSplit("f", map[string]int{"rev-1": 50, "v2": 50}))
	must(t, s.SetTargetInstances("f", 4))
	revs, err := s.Revisions("f")
	must(t, err)
	for _, r := range revs {
		if r.Instances != 2 || r.ColdStarts != 2 {
			t.Fatalf("revisions %+v, want 2 instances and 2 cold starts each", revs)
		}
	}
}

func TestFailNodeNeverRequeues(t *testing.T) {
	eng := sim.NewEngine()
	var scales, requeues int
	s := New(eng, Config{Tick: sim.Seconds(10), Events: framework.Events{
		OnScale:   func(*framework.Job) { scales++ },
		OnRequeue: func(*framework.Job) { requeues++ },
	}})
	addNodes(s, 2, 1.0)
	j := fn("f", 2, 10, 600, 5, 5)
	must(t, s.Submit(j))
	eng.Run(sim.Seconds(25))
	nodes, err := fwtest.JobNodes(s, "f")
	must(t, err)
	if len(nodes) == 0 {
		t.Fatal("no instances to crash")
	}

	// Crash every instance host — including the last one. Unlike a
	// service, the function never requeues: it goes back to cold and the
	// activation queue buffers demand.
	scalesBefore := scales
	for _, id := range nodes {
		must(t, s.FailNode(id))
	}
	if j.State != framework.JobRunning || j.Replicas != 0 {
		t.Fatalf("after losing all instances: state=%v replicas=%d, want running/0", j.State, j.Replicas)
	}
	if requeues != 0 || scales-scalesBefore != len(nodes) {
		t.Fatalf("requeues=%d scales=+%d, want 0 requeues and one OnScale per crash", requeues, scales-scalesBefore)
	}

	// Replacement capacity re-warms it on the next pass.
	servedBefore := stats(t, s, "f").Served
	s.AddNode(framework.Node{ID: "r0", SpeedFactor: 1.0})
	s.AddNode(framework.Node{ID: "r1", SpeedFactor: 1.0})
	eng.Run(sim.Seconds(80))
	st := stats(t, s, "f")
	if st.Instances == 0 || st.Served <= servedBefore {
		t.Fatalf("instances=%d served %g->%g, want service to resume on fresh nodes",
			st.Instances, servedBefore, st.Served)
	}
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v, want done", j.State)
	}
}

func TestShrinkPrivateFirstKeepsOne(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{})
	s.AddNode(framework.Node{ID: "p0", SpeedFactor: 1.0})
	s.AddNode(framework.Node{ID: "p1", SpeedFactor: 1.0})
	s.AddNode(framework.Node{ID: "c0", SpeedFactor: 1.0, Cloud: true})
	s.AddNode(framework.Node{ID: "c1", SpeedFactor: 1.0, Cloud: true})
	j := fn("f", 4, 10, 600, 0, 5)
	must(t, s.Submit(j))
	must(t, s.SetTargetInstances("f", 4))

	// Reclaim takes private hosts first — the transferable VMs — even
	// though the cloud instances are the newest assignments.
	must(t, s.Shrink("f", 2))
	private, cloud, err := s.ReplicaKinds("f")
	must(t, err)
	if private != 0 || cloud != 2 {
		t.Fatalf("kinds after shrink = %d private / %d cloud, want 0/2", private, cloud)
	}
	f, err := s.Lookup("f")
	must(t, err)
	if f.Target != 2 {
		t.Fatalf("target = %d, want lowered to 2 so the autoscaler cannot re-grab", f.Target)
	}
	free := fwtest.FreeNodes(s, false)
	if s.FreeLen() != 2 || len(free) != 2 || free[0] != "p0" || free[1] != "p1" {
		t.Fatalf("freed = %v of %d, want the private hosts [p0 p1]", free, s.FreeLen())
	}

	// Never fully cold by reclaim: at least one instance survives.
	if err := s.Shrink("f", 2); err == nil {
		t.Fatal("Shrink to zero instances succeeded")
	}
	must(t, s.Shrink("f", 1)) // falls through to the cloud pass
	private, cloud, err = s.ReplicaKinds("f")
	must(t, err)
	if private != 0 || cloud != 1 {
		t.Fatalf("kinds = %d/%d, want the single surviving cloud instance", private, cloud)
	}
}

func TestInstanceCapThrottlesAutoscaler(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 8, 1.0)
	// Offered 50 req/s against 10 req/s instances wants a large fleet.
	j := fn("f", 8, 10, 600, 0, 50)
	must(t, s.Submit(j))
	must(t, s.SetInstanceCap("f", 2))

	eng.Run(sim.Seconds(100))
	st := stats(t, s, "f")
	if st.Instances > 2 || st.Target > 2 {
		t.Fatalf("instances=%d target=%d under cap 2, want the throttle to hold", st.Instances, st.Target)
	}

	// Removing the cap lets the autoscaler chase demand again.
	must(t, s.SetInstanceCap("f", 0))
	eng.Run(sim.Seconds(150))
	if st := stats(t, s, "f"); st.Instances <= 2 {
		t.Fatalf("instances = %d after cap removal, want growth beyond 2", st.Instances)
	}

	// An over-cap fleet shrinks immediately when a cap lands.
	must(t, s.SetInstanceCap("f", 1))
	if st := stats(t, s, "f"); st.Instances != 1 {
		t.Fatalf("instances = %d right after cap 1, want immediate shrink", st.Instances)
	}
}

func TestSuspendResumeColdRestart(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	addNodes(s, 2, 1.0)
	j := fn("f", 2, 10, 600, 5, 5)
	j.TargetP95 = 1.0
	must(t, s.Submit(j))
	eng.Run(sim.Seconds(200))

	must(t, s.Suspend("f"))
	if j.State != framework.JobSuspended || j.DoneWork != 200 || j.Replicas != 0 {
		t.Fatalf("suspend: state=%v done=%g replicas=%d, want suspended/200/0", j.State, j.DoneWork, j.Replicas)
	}
	if free := s.FreeLen(); free != 2 {
		t.Fatalf("free after suspend = %d, want both nodes back", free)
	}
	if err := s.Suspend("f"); err == nil {
		t.Fatal("double Suspend succeeded")
	}

	// A suspended function with offered demand is down: every tick burns.
	st := stats(t, s, "f")
	eng.Run(sim.Seconds(300))
	st2 := stats(t, s, "f")
	if st2.Burned-st.Burned != st2.Intervals-st.Intervals || st2.Intervals == st.Intervals {
		t.Fatalf("suspended burn: +%d burned over +%d intervals, want every interval burned",
			st2.Burned-st.Burned, st2.Intervals-st.Intervals)
	}

	// Resume restarts cold; lifetime is preserved, so the 100 s gap
	// pushes completion from 600 to 700.
	must(t, s.Resume("f"))
	end := eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v, want done", j.State)
	}
	if got := sim.ToSeconds(end); got != 700 {
		t.Fatalf("ended at %.0f s, want 700 (400 s remaining after resume)", got)
	}
}

func TestSubmitValidationAndDefaults(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	cases := []*framework.Job{
		{ID: "", VMs: 1, SvcRate: 1, Work: 10},
		{ID: "a", VMs: 0, SvcRate: 1, Work: 10},
		{ID: "b", VMs: 1, SvcRate: 0, Work: 10},
		{ID: "c", VMs: 1, SvcRate: 1, Work: 0},
		{ID: "d", VMs: 1, SvcRate: 1, Work: 10, ColdStartS: -1},
	}
	for _, j := range cases {
		if err := s.Submit(j); err == nil {
			t.Fatalf("Submit(%+v) succeeded, want error", j)
		}
	}

	// Defaults: concurrency target 1, idle window 6 ticks, revision
	// "rev-1" holding all traffic — and the function runs without any
	// nodes, because cold needs nothing.
	j := &framework.Job{ID: "ok", VMs: 1, SvcRate: 1, Work: 10}
	must(t, s.Submit(j))
	if j.ConcTarget != 1 || j.IdleWindowS != 60 || j.Revision != "rev-1" {
		t.Fatalf("defaults: conc=%g idle=%g rev=%q, want 1/60/rev-1", j.ConcTarget, j.IdleWindowS, j.Revision)
	}
	if j.State != framework.JobRunning || j.Replicas != 0 {
		t.Fatalf("state=%v replicas=%d, want running cold with zero nodes attached", j.State, j.Replicas)
	}
	revs, err := s.Revisions("ok")
	must(t, err)
	if len(revs) != 1 || revs[0].Name != "rev-1" || revs[0].Weight != 100 {
		t.Fatalf("initial revisions = %+v, want rev-1 at weight 100", revs)
	}
	if err := s.Submit(&framework.Job{ID: "ok", VMs: 1, SvcRate: 1, Work: 10}); err == nil {
		t.Fatal("duplicate Submit succeeded")
	}
}

// TestFreeNodeIndexConsistency drives the index through every node/job
// transition — add, cold launch, pinned growth, shrink, canary flips,
// suspend, resume, a crash mid-cold-start, remove, finish — verifying
// the maintained free index against a full rescan after each step, the
// same fwtest lifecycle check the batch, mapreduce and service suites
// run.
func TestFreeNodeIndexConsistency(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, Config{Tick: sim.Seconds(10)})
	var attachOrder []string
	add := func(id string, cloud bool) {
		s.AddNode(framework.Node{ID: id, SpeedFactor: 1.0, Cloud: cloud})
		attachOrder = append(attachOrder, id)
	}
	check := func(step string) {
		t.Helper()
		fwtest.CheckIndexes(t, s, attachOrder)
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

	// Functions launch cold: registering grabs no nodes at all.
	j1 := fn("f1", 4, 10, 1000, 5, 5)
	must(t, s.Submit(j1))
	j2 := fn("f2", 1, 10, 1000, 5, 5)
	must(t, s.Submit(j2))
	if s.FreeLen() != 5 {
		t.Fatalf("free = %d after two cold launches, want all 5", s.FreeLen())
	}
	check("cold launch f1 f2")

	must(t, s.SetTargetInstances("f1", 2)) // boots p0, c0
	must(t, s.SetTargetInstances("f2", 1)) // boots p1
	check("pin fleets")

	must(t, s.SetTargetInstances("f1", 4)) // grows onto c1, p2
	if j1.Replicas != 4 {
		t.Fatalf("f1 replicas = %d, want 4", j1.Replicas)
	}
	check("grow f1 to 4")

	// Canary ops move instances between revisions but never touch the
	// node indexes — hosts stay busy through a flip.
	must(t, s.DeployRevision("f1", "v2"))
	must(t, s.SetTrafficSplit("f1", map[string]int{"rev-1": 75, "v2": 25}))
	check("canary split f1")

	must(t, s.Shrink("f1", 2)) // private first: releases p2, then p0
	free := fwtest.FreeNodes(s, false)
	if s.FreeLen() != 2 || len(free) != 2 || free[0] != "p0" || free[1] != "p2" {
		t.Fatalf("freed = %v of %d, want the private hosts [p0 p2]", free, s.FreeLen())
	}
	check("shrink f1 to 2")

	must(t, s.Suspend("f1")) // frees c0 and c1
	check("suspend f1")

	must(t, s.Resume("f1")) // re-registers cold: no nodes taken
	if j1.State != framework.JobRunning || j1.Replicas != 0 {
		t.Fatalf("resumed f1: state=%v replicas=%d, want running cold", j1.State, j1.Replicas)
	}
	check("resume f1 cold")

	// Re-pin two instances (p0, c0 in attach order), then crash one
	// mid-cold-start: the 5 s boot has not elapsed, the host vanishes,
	// and the function keeps running and re-pins onto c1, the first free
	// node in attach order.
	must(t, s.SetTargetInstances("f1", 2))
	check("re-pin f1")
	must(t, s.FailNode("p0"))
	attachOrder = []string{"c0", "p1", "c1", "p2"}
	if j1.State != framework.JobRunning || j1.Replicas != 2 {
		t.Fatalf("after mid-boot crash: state=%v replicas=%d, want running/2", j1.State, j1.Replicas)
	}
	if nodes, _ := fwtest.JobNodes(s, "f1"); fmt.Sprint(nodes) != "[c0 c1]" {
		t.Fatalf("f1 runs on %v, want [c0 c1]", nodes)
	}
	check("fail p0 mid-cold-start")

	must(t, s.RemoveNode("p2")) // the one free node left
	attachOrder = []string{"c0", "p1", "c1"}
	check("remove p2")

	eng.RunAll() // both functions run out their lifetimes
	if j1.State != framework.JobDone || j2.State != framework.JobDone {
		t.Fatalf("states = %v/%v, want done/done", j1.State, j2.State)
	}
	check("run to completion")
}

// largestRemainder is an independent statement of the quota rule the
// framework promises: n instances split by weight, floors first, then
// one each to the largest remainders, ties to the older revision, and
// never to a zero-weight revision.
func largestRemainder(revs []RevisionStats, n int) []int {
	out := make([]int, len(revs))
	total := 0
	for _, r := range revs {
		total += r.Weight
	}
	if total <= 0 || n <= 0 {
		return out
	}
	rem := make([]int, len(revs))
	left := n
	for i, r := range revs {
		out[i] = n * r.Weight / total
		rem[i] = n * r.Weight % total
		left -= out[i]
	}
	for ; left > 0; left-- {
		best := -1
		for i, r := range revs {
			if r.Weight > 0 && rem[i] >= 0 && (best < 0 || rem[i] > rem[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// TestPropertyRevisionBookkeeping applies seeded random sequences of
// fleet, node and revision operations — SetTargetInstances, Shrink,
// FailNode, AddNode, DeployRevision, SetTrafficSplit, SetInstanceCap
// and engine steps that run the autoscaler — to two functions sharing
// one node pool. After every operation the per-revision instance counts
// must sum to the function's fleet and its node set, and the node
// indexes must hold; after every traffic split and reclaim the counts
// must equal the largest-remainder quotas exactly.
func TestPropertyRevisionBookkeeping(t *testing.T) {
	seeds, ops := 20, 300
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := sim.NewRNG(seed, "serverless/revisions")
		eng := sim.NewEngine()
		s := New(eng, Config{Tick: sim.Seconds(10)})
		var attachOrder []string
		addNode := func() {
			id := fmt.Sprintf("n%03d", len(attachOrder))
			s.AddNode(framework.Node{ID: id, SpeedFactor: 1, Cloud: rng.Intn(3) == 0})
			attachOrder = append(attachOrder, id)
		}
		for i := 0; i < 6; i++ {
			addNode()
		}
		ids := []string{"f0", "f1"}
		for i, id := range ids {
			j := fn(id, 6, 10, 1e7, float64(5*i), 0)
			j.IdleWindowS = 30
			period := sim.Seconds(float64(80 + 60*i))
			peak := float64(20 + 15*i)
			j.Rate = func(t sim.Time) float64 {
				if (t/period)%2 == 0 {
					return peak
				}
				return 0
			}
			must(t, s.Submit(j))
		}
		deployed := map[string]int{}

		check := func(op int, what, quotaID string) {
			t.Helper()
			fwtest.CheckIndexes(t, s, attachOrder)
			for _, id := range ids {
				revs, err := s.Revisions(id)
				must(t, err)
				nodes, err := fwtest.JobNodes(s, id)
				must(t, err)
				sum := 0
				for _, r := range revs {
					sum += r.Instances
				}
				if fleet := stats(t, s, id).Instances; sum != fleet || sum != len(nodes) {
					t.Fatalf("seed %d op %d (%s): %s revisions hold %d instances, fleet %d, nodes %d",
						seed, op, what, id, sum, fleet, len(nodes))
				}
				if id != quotaID {
					continue
				}
				want := largestRemainder(revs, sum)
				for i, r := range revs {
					if r.Instances != want[i] {
						t.Fatalf("seed %d op %d (%s): %s revisions %+v, want quotas %v",
							seed, op, what, id, revs, want)
					}
				}
			}
		}

		for op := 0; op < ops; op++ {
			id := ids[rng.Intn(len(ids))]
			what, quotaID := "", ""
			switch rng.Intn(8) {
			case 0:
				n := rng.Intn(8)
				what = fmt.Sprintf("SetTargetInstances(%s, %d)", id, n)
				must(t, s.SetTargetInstances(id, n))
			case 1:
				k := 1 + rng.Intn(3)
				what = fmt.Sprintf("Shrink(%s, %d)", id, k)
				if s.Shrink(id, k) == nil {
					quotaID = id
				}
			case 2:
				nid := attachOrder[rng.Intn(len(attachOrder))]
				what = fmt.Sprintf("FailNode(%s)", nid)
				if _, ok := s.InspectNode(nid); ok {
					must(t, s.FailNode(nid))
				}
			case 3:
				what = "AddNode"
				if s.NumNodes() < 12 {
					addNode()
				}
			case 4:
				deployed[id]++
				name := fmt.Sprintf("v%d", deployed[id]+1)
				what = fmt.Sprintf("DeployRevision(%s, %s)", id, name)
				must(t, s.DeployRevision(id, name))
			case 5:
				revs, err := s.Revisions(id)
				must(t, err)
				weights := map[string]int{}
				for _, r := range revs {
					if rng.Intn(2) == 0 {
						weights[r.Name] = rng.Intn(4) * 25
					}
				}
				what = fmt.Sprintf("SetTrafficSplit(%s, %v)", id, weights)
				if s.SetTrafficSplit(id, weights) == nil {
					quotaID = id
				}
			case 6:
				n := rng.Intn(5)
				what = fmt.Sprintf("SetInstanceCap(%s, %d)", id, n)
				must(t, s.SetInstanceCap(id, n))
			case 7:
				d := rng.Range(1, 40)
				what = fmt.Sprintf("Run(+%.1fs)", d)
				eng.Run(eng.Now() + sim.Seconds(d))
			}
			check(op, what, quotaID)
		}
	}
}
