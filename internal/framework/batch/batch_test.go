package batch

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"meryn/internal/framework"
	"meryn/internal/framework/fwtest"
	"meryn/internal/sim"
)

func addNodes(b *Batch, n int, speed float64) {
	for i := 0; i < n; i++ {
		b.AddNode(framework.Node{ID: fmt.Sprintf("n%02d", i), SpeedFactor: speed})
	}
}

func job(id string, vms int, work float64) *framework.Job {
	return &framework.Job{ID: id, VMs: vms, Work: work}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	var started, finished []*framework.Job
	b := New(eng, Config{Name: "vc1", Events: framework.Events{
		OnStart:  func(j *framework.Job) { started = append(started, j) },
		OnFinish: func(j *framework.Job) { finished = append(finished, j) },
	}})
	addNodes(b, 1, 1.0)
	j := job("a", 1, 1550)
	if err := b.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(started) != 1 || len(finished) != 1 {
		t.Fatalf("events: started=%d finished=%d", len(started), len(finished))
	}
	if j.State != framework.JobDone {
		t.Fatalf("state = %v", j.State)
	}
	if j.FinishedAt != sim.Seconds(1550) {
		t.Fatalf("FinishedAt = %v, want 1550s", j.FinishedAt)
	}
	if p, _ := b.Progress("a"); p != 1 {
		t.Fatalf("progress = %v", p)
	}
}

func TestSpeedFactorScalesExecTime(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	// Cloud-like slower node: 1550 reference seconds -> ~1670 wall.
	b.AddNode(framework.Node{ID: "c0", SpeedFactor: 1550.0 / 1670.0, Cloud: true})
	j := job("a", 1, 1550)
	if err := b.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	got := sim.ToSeconds(j.FinishedAt)
	if math.Abs(got-1670) > 0.001 {
		t.Fatalf("cloud exec = %v s, want 1670 s", got)
	}
}

func TestFIFOQueueing(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	b := New(eng, Config{Events: framework.Events{
		OnStart: func(j *framework.Job) { order = append(order, j.ID) },
	}})
	addNodes(b, 1, 1.0)
	for _, id := range []string{"a", "b", "c"} {
		if err := b.Submit(job(id, 1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.QueuedJobs()) != 2 {
		t.Fatalf("queued = %d, want 2", len(b.QueuedJobs()))
	}
	eng.RunAll()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("start order = %v", order)
	}
	// Sequential on one node: finish at 100, 200, 300.
	jc, _ := b.Get("c")
	if jc.FinishedAt != sim.Seconds(300) {
		t.Fatalf("c finished at %v", jc.FinishedAt)
	}
}

func TestMultiVMJobScalesAtMinSpeed(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	b.AddNode(framework.Node{ID: "fast", SpeedFactor: 2.0})
	b.AddNode(framework.Node{ID: "slow", SpeedFactor: 0.5})
	j := job("a", 2, 100)
	if err := b.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	// 100 reference seconds over 2 nodes at the slowest speed 0.5:
	// 100 / (2 * 0.5) = 100 s.
	if j.FinishedAt != sim.Seconds(100) {
		t.Fatalf("FinishedAt = %v, want 100s", j.FinishedAt)
	}
}

func TestMultiVMSuspendResumePreservesScaledWork(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 2, 1.0)
	j := job("a", 2, 1000) // 500 s wall on 2 nodes
	must(t, b.Submit(j))
	eng.Run(sim.Seconds(200))
	must(t, b.Suspend("a"))
	if j.DoneWork != 400 { // 200 s * 2 nodes * speed 1.0
		t.Fatalf("DoneWork = %v, want 400", j.DoneWork)
	}
	must(t, b.Resume("a"))
	eng.RunAll()
	if j.FinishedAt != sim.Seconds(500) {
		t.Fatalf("FinishedAt = %v, want 500s", j.FinishedAt)
	}
}

func TestFIFOHeadBlocks(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	b := New(eng, Config{Events: framework.Events{
		OnStart: func(j *framework.Job) { order = append(order, j.ID) },
	}})
	addNodes(b, 2, 1.0)
	must(t, b.Submit(job("big", 2, 100)))
	must(t, b.Submit(job("huge", 3, 100))) // can never run with 2 nodes... blocks
	must(t, b.Submit(job("small", 1, 100)))
	eng.Run(sim.Seconds(500))
	// Strict FIFO: small must NOT start because huge blocks the head.
	if len(order) != 1 || order[0] != "big" {
		t.Fatalf("order = %v, want only big", order)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	if err := b.Submit(job("", 1, 10)); !errors.Is(err, framework.ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
	if err := b.Submit(job("a", 0, 10)); !errors.Is(err, framework.ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
	if err := b.Submit(job("a", 1, 0)); !errors.Is(err, framework.ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
	must(t, b.Submit(job("a", 1, 10)))
	if err := b.Submit(job("a", 1, 10)); !errors.Is(err, framework.ErrJobExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestSuspendPreservesProgress(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 1, 1.0)
	j := job("a", 1, 1000)
	must(t, b.Submit(j))
	eng.Run(sim.Seconds(400))
	must(t, b.Suspend("a"))
	if j.State != framework.JobSuspended {
		t.Fatalf("state = %v", j.State)
	}
	if math.Abs(j.DoneWork-400) > 1e-9 {
		t.Fatalf("DoneWork = %v, want 400", j.DoneWork)
	}
	if j.Suspensions != 1 {
		t.Fatalf("Suspensions = %d", j.Suspensions)
	}
	if p, _ := b.Progress("a"); math.Abs(p-0.4) > 1e-9 {
		t.Fatalf("progress = %v, want 0.4", p)
	}
	// Node is free again.
	if b.FreeLen() != 1 {
		t.Fatal("suspended job did not free its node")
	}
	// Resume: runs the remaining 600s.
	must(t, b.Resume("a"))
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v", j.State)
	}
	if j.FinishedAt != sim.Seconds(1000) { // 400 run + suspended instant + 600 run
		t.Fatalf("FinishedAt = %v, want 1000s", j.FinishedAt)
	}
	if j.StartedAt != 0 {
		t.Fatalf("StartedAt = %v, want first start time 0", j.StartedAt)
	}
}

func TestSuspendFreedNodesGoToQueuedJobs(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 1, 1.0)
	must(t, b.Submit(job("victim", 1, 1000)))
	must(t, b.Submit(job("waiter", 1, 100)))
	eng.Run(sim.Seconds(100))
	must(t, b.Suspend("victim"))
	w, _ := b.Get("waiter")
	if w.State != framework.JobRunning {
		t.Fatalf("waiter state = %v, want running after suspension freed the node", w.State)
	}
}

func TestResumePriority(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	b := New(eng, Config{Events: framework.Events{
		OnStart: func(j *framework.Job) { order = append(order, j.ID) },
	}})
	addNodes(b, 1, 1.0)
	must(t, b.Submit(job("victim", 1, 1000)))
	eng.Run(sim.Seconds(100))
	must(t, b.Suspend("victim"))
	must(t, b.Submit(job("later", 1, 100)))
	// "later" grabbed the free node; on resume, victim must queue ahead
	// of anything submitted afterwards.
	must(t, b.Submit(job("latest", 1, 100)))
	must(t, b.Resume("victim"))
	eng.RunAll()
	want := []string{"victim", "later", "victim", "latest"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("start order = %v, want %v", order, want)
	}
}

func TestSuspendStateErrors(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 1, 1.0)
	if err := b.Suspend("ghost"); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("err = %v", err)
	}
	must(t, b.Submit(job("a", 2, 100))) // queued (needs 2 nodes, has 1)
	if err := b.Suspend("a"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("suspend queued: err = %v", err)
	}
	if err := b.Resume("a"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("resume queued: err = %v", err)
	}
	if err := b.Resume("ghost"); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeManagement(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 2, 1.0)
	if b.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", b.NumNodes())
	}
	must(t, b.Submit(job("a", 1, 1000)))
	// n00 is busy; removing it must fail, removing n01 must work.
	if err := b.RemoveNode("n00"); !errors.Is(err, framework.ErrNodeBusy) {
		t.Fatalf("err = %v", err)
	}
	must(t, b.RemoveNode("n01"))
	if b.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", b.NumNodes())
	}
	if err := b.RemoveNode("nope"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	b := New(sim.NewEngine(), Config{})
	b.AddNode(framework.Node{ID: "x"})
	b.AddNode(framework.Node{ID: "x"})
}

func TestDrainFlowForVMExchange(t *testing.T) {
	// The Cluster Manager flow from paper §3.4: suspend the victim, then
	// remove the nodes that are free. The queued waiter takes the first
	// freed node, and a node hosting work refuses removal.
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 2, 1.0)
	must(t, b.Submit(job("victim", 2, 1000)))
	must(t, b.Submit(job("waiter", 1, 100)))
	eng.Run(sim.Seconds(10))

	nodes, err := fwtest.JobNodes(b, "victim")
	must(t, err)
	if fmt.Sprint(nodes) != "[n00 n01]" {
		t.Fatalf("victim nodes = %v", nodes)
	}
	must(t, b.Suspend("victim"))
	w, _ := b.Get("waiter")
	if w.State != framework.JobRunning {
		t.Fatalf("waiter state = %v, want running on a freed node", w.State)
	}
	free := fwtest.FreeNodes(b, false)
	if fmt.Sprint(free) != "[n01]" {
		t.Fatalf("free after suspension = %v, want [n01]", free)
	}
	for _, id := range free {
		must(t, b.RemoveNode(id))
	}
	if err := b.RemoveNode("n00"); !errors.Is(err, framework.ErrNodeBusy) {
		t.Fatalf("RemoveNode of the waiter's node = %v, want ErrNodeBusy", err)
	}
	if b.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", b.NumNodes())
	}
}

func TestJobNodesNotRunning(t *testing.T) {
	b := New(sim.NewEngine(), Config{})
	if _, err := fwtest.JobNodes(b, "nope"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("err = %v", err)
	}
}

func TestProgressUnknownJob(t *testing.T) {
	b := New(sim.NewEngine(), Config{})
	if _, err := b.Progress("nope"); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunningListSubmissionOrder(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 3, 1.0)
	// Lexicographically shuffled IDs: submission order must win (a
	// lexicographic sort would put app-10 before app-2).
	must(t, b.Submit(job("app-10", 1, 100)))
	must(t, b.Submit(job("app-2", 1, 100)))
	must(t, b.Submit(job("app-1", 1, 100)))
	running := b.Running()
	if len(running) != 3 {
		t.Fatalf("running = %d", len(running))
	}
	if running[0].ID != "app-10" || running[1].ID != "app-2" || running[2].ID != "app-1" {
		t.Fatalf("order = %v %v %v, want submission order app-10 app-2 app-1",
			running[0].ID, running[1].ID, running[2].ID)
	}
}

func TestDefaults(t *testing.T) {
	b := New(sim.NewEngine(), Config{})
	if b.Name() != "batch" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.Image() != "batch.img" {
		t.Fatalf("Image = %q", b.Image())
	}
	b2 := New(sim.NewEngine(), Config{Name: "vc1"})
	if b2.Image() != "vc1.img" {
		t.Fatalf("Image = %q", b2.Image())
	}
}

func TestJobStateString(t *testing.T) {
	for s, want := range map[framework.JobState]string{
		framework.JobQueued:    "queued",
		framework.JobRunning:   "running",
		framework.JobSuspended: "suspended",
		framework.JobDone:      "done",
		framework.JobState(9):  "state(9)",
	} {
		if s.String() != want {
			t.Fatalf("String = %q, want %q", s.String(), want)
		}
	}
}

// Property: with n identical nodes and k single-VM equal jobs, makespan
// equals ceil(k/n) * jobtime and all jobs complete.
func TestPropertyMakespanIdenticalJobs(t *testing.T) {
	f := func(nodes, jobs uint8) bool {
		n := int(nodes%8) + 1
		k := int(jobs%20) + 1
		eng := sim.NewEngine()
		b := New(eng, Config{})
		addNodes(b, n, 1.0)
		for i := 0; i < k; i++ {
			if err := b.Submit(job(fmt.Sprintf("j%02d", i), 1, 100)); err != nil {
				return false
			}
		}
		eng.RunAll()
		waves := (k + n - 1) / n
		want := sim.Seconds(float64(waves) * 100)
		for i := 0; i < k; i++ {
			j, ok := b.Get(fmt.Sprintf("j%02d", i))
			if !ok || j.State != framework.JobDone {
				return false
			}
			if j.FinishedAt > want {
				return false
			}
		}
		return eng.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: suspend/resume never loses work — total runtime equals
// work regardless of when the suspension happens.
func TestPropertySuspendResumeConservesWork(t *testing.T) {
	f := func(suspendAt uint16) bool {
		at := float64(suspendAt%999) + 0.5 // in (0, 1000)
		eng := sim.NewEngine()
		b := New(eng, Config{})
		addNodes(b, 1, 1.0)
		j := job("a", 1, 1000)
		if err := b.Submit(j); err != nil {
			return false
		}
		eng.Run(sim.Seconds(at))
		if err := b.Suspend("a"); err != nil {
			return false
		}
		gap := sim.Seconds(50)
		eng.Run(eng.Now() + gap)
		if err := b.Resume("a"); err != nil {
			return false
		}
		eng.RunAll()
		wantFinish := sim.Seconds(1000) + gap
		return j.State == framework.JobDone && j.FinishedAt == wantFinish
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeRequeuesGangJob(t *testing.T) {
	eng := sim.NewEngine()
	var requeued []string
	b := New(eng, Config{Events: framework.Events{
		OnRequeue: func(j *framework.Job) { requeued = append(requeued, j.ID) },
	}})
	addNodes(b, 2, 1.0)
	j := job("a", 2, 1000)
	must(t, b.Submit(j))
	eng.Run(sim.Seconds(300))
	must(t, b.FailNode("n00"))
	if len(requeued) != 1 || requeued[0] != "a" {
		t.Fatalf("requeued = %v", requeued)
	}
	if j.State != framework.JobQueued {
		t.Fatalf("state = %v", j.State)
	}
	// Progress since the last checkpoint is lost (no suspension happened).
	if j.DoneWork != 0 {
		t.Fatalf("DoneWork = %v, want 0 (crash loses unchecked progress)", j.DoneWork)
	}
	if b.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", b.NumNodes())
	}
	// The survivor node is idle; with a second node the job can rerun.
	b.AddNode(framework.Node{ID: "fresh", SpeedFactor: 1.0})
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v after replacement", j.State)
	}
	// Full rerun: 300 (lost) + 500 wall (1000 ref / 2 nodes).
	if j.FinishedAt != sim.Seconds(800) {
		t.Fatalf("FinishedAt = %v, want 800s", j.FinishedAt)
	}
}

func TestFailNodeKeepsCheckpointedWork(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 1, 1.0)
	j := job("a", 1, 1000)
	must(t, b.Submit(j))
	eng.Run(sim.Seconds(400))
	must(t, b.Suspend("a")) // checkpoint at 400
	must(t, b.Resume("a"))
	eng.Run(sim.Seconds(600)) // 200 more seconds of progress
	must(t, b.FailNode("n00"))
	if j.DoneWork != 400 {
		t.Fatalf("DoneWork = %v, want 400 (checkpoint retained, post-checkpoint lost)", j.DoneWork)
	}
}

func TestFailIdleAndUnknownNode(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	addNodes(b, 1, 1.0)
	must(t, b.FailNode("n00"))
	if b.NumNodes() != 0 {
		t.Fatalf("NumNodes = %d", b.NumNodes())
	}
	if err := b.FailNode("ghost"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
}

// --- Requeue order and index consistency ---

// TestCrashRequeueRestartsFirst: a job that lost its nodes to a crash
// requeues at the queue front and restarts before older queued work.
func TestCrashRequeueRestartsFirst(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	b := New(eng, Config{Events: framework.Events{
		OnStart: func(j *framework.Job) { order = append(order, j.ID) },
	}})
	addNodes(b, 1, 1.0)
	v := job("victim", 1, 100)
	must(t, b.Submit(v))
	must(t, b.Submit(job("w1", 1, 10)))
	must(t, b.Submit(job("w2", 1, 10)))
	eng.Run(sim.Seconds(50))
	must(t, b.FailNode("n00")) // victim loses its only node mid-run
	if v.State != framework.JobQueued {
		t.Fatalf("victim state = %v, want queued", v.State)
	}
	if q := b.QueuedJobs(); len(q) != 3 || q[0].ID != "victim" {
		t.Fatalf("queue head = %v, want victim first of 3", q)
	}
	b.AddNode(framework.Node{ID: "replacement", SpeedFactor: 1.0})
	eng.RunAll()
	want := []string{"victim", "victim", "w1", "w2"}
	if len(order) != 4 || order[1] != "victim" || order[2] != "w1" {
		t.Fatalf("start order = %v, want %v", order, want)
	}
	if v.DoneWork != 100 || v.State != framework.JobDone {
		t.Fatalf("victim: state=%v done=%v", v.State, v.DoneWork)
	}
}

// checkNodeIndexes compares the maintained free index against a
// brute-force recomputation from per-node status (shared helper in
// fwtest), using the attach order tracked by the test.
func checkNodeIndexes(t *testing.T, b *Batch, attachOrder []string) {
	t.Helper()
	fwtest.CheckIndexes(t, b, attachOrder)
}

// TestFreeNodeIndexConsistency drives the index through every node/job
// transition: add, schedule, suspend, resume, fail, remove, finish —
// verifying it against a full rescan after each step.
func TestFreeNodeIndexConsistency(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, Config{})
	var attachOrder []string
	add := func(id string, cloud bool) {
		b.AddNode(framework.Node{ID: id, SpeedFactor: 1.0, Cloud: cloud})
		attachOrder = append(attachOrder, id)
	}
	check := func(step string) {
		t.Helper()
		checkNodeIndexes(t, b, attachOrder)
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

	must(t, b.Submit(job("j1", 2, 1000))) // takes p0, c0
	must(t, b.Submit(job("j2", 1, 1000))) // takes p1
	check("start j1 j2")

	must(t, b.Suspend("j1")) // frees p0 and c0
	check("suspend j1")

	must(t, b.Resume("j1")) // restarts on p0, c0
	eng.Run(sim.Seconds(1))
	check("resume j1")

	must(t, b.FailNode("p0")) // j1 requeues and restarts on c0, c1
	attachOrder = []string{"c0", "p1", "c1", "p2"}
	check("fail p0")

	must(t, b.RemoveNode("p2")) // the one free node left
	attachOrder = []string{"c0", "p1", "c1"}
	check("remove p2")

	eng.RunAll() // j1 finishes (c0+c1), then j2 frees p1
	check("run to completion")

	if got := fwtest.FreeNodes(b, false); fmt.Sprint(got) != "[p1]" {
		t.Fatalf("free private at end = %v, want [p1]", got)
	}
	if got := fwtest.FreeNodes(b, true); fmt.Sprint(got) != "[c0 c1]" {
		t.Fatalf("free cloud at end = %v, want [c0 c1]", got)
	}
}
