package mapreduce

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"meryn/internal/framework"
	"meryn/internal/framework/fwtest"
	"meryn/internal/sim"
)

func addNodes(m *MapReduce, n int, speed float64) {
	for i := 0; i < n; i++ {
		m.AddNode(framework.Node{ID: fmt.Sprintf("n%02d", i), SpeedFactor: speed})
	}
}

func mrJob(id string, maps, reds int, mapWork, redWork float64) *framework.Job {
	return &framework.Job{ID: id, MapTasks: maps, ReduceTasks: reds, MapWork: mapWork, ReduceWork: redWork}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimpleJobCompletes(t *testing.T) {
	eng := sim.NewEngine()
	var finished []*framework.Job
	m := New(eng, Config{SlotsPerNode: 2, Events: framework.Events{
		OnFinish: func(j *framework.Job) { finished = append(finished, j) },
	}})
	addNodes(m, 1, 1.0)
	// 4 maps of 10s on 2 slots = 2 waves = 20s; 2 reduces of 5s = 5s.
	j := mrJob("a", 4, 2, 10, 5)
	must(t, m.Submit(j))
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v", j.State)
	}
	if j.FinishedAt != sim.Seconds(25) {
		t.Fatalf("FinishedAt = %v, want 25s", j.FinishedAt)
	}
	if len(finished) != 1 {
		t.Fatalf("finished events = %d", len(finished))
	}
	if j.Work != 4*10+2*5 {
		t.Fatalf("Work = %v", j.Work)
	}
}

func TestReduceBarrier(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 4})
	addNodes(m, 1, 1.0)
	// 2 maps (10s) + 2 reduces (10s) with 4 slots: reduces must NOT
	// overlap maps; completion = 20s, not 10s.
	j := mrJob("a", 2, 2, 10, 10)
	must(t, m.Submit(j))
	eng.RunAll()
	if j.FinishedAt != sim.Seconds(20) {
		t.Fatalf("FinishedAt = %v, want 20s (strict barrier)", j.FinishedAt)
	}
}

func TestMapOnlyJob(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 2})
	addNodes(m, 2, 1.0)
	j := mrJob("a", 4, 0, 10, 0)
	must(t, m.Submit(j))
	eng.RunAll()
	if j.State != framework.JobDone || j.FinishedAt != sim.Seconds(10) {
		t.Fatalf("state=%v finish=%v", j.State, j.FinishedAt)
	}
}

func TestSpeedFactor(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 1})
	m.AddNode(framework.Node{ID: "slow", SpeedFactor: 0.5})
	j := mrJob("a", 1, 0, 10, 0)
	must(t, m.Submit(j))
	eng.RunAll()
	if j.FinishedAt != sim.Seconds(20) {
		t.Fatalf("FinishedAt = %v, want 20s", j.FinishedAt)
	}
}

func TestFIFOSlotAllocation(t *testing.T) {
	eng := sim.NewEngine()
	var starts []string
	m := New(eng, Config{SlotsPerNode: 1, Events: framework.Events{
		OnStart: func(j *framework.Job) { starts = append(starts, j.ID) },
	}})
	addNodes(m, 2, 1.0)
	// Hadoop-FIFO: the first job grabs every free slot; the second waits.
	must(t, m.Submit(mrJob("a", 2, 0, 10, 0)))
	must(t, m.Submit(mrJob("b", 2, 0, 10, 0)))
	if len(starts) != 1 || starts[0] != "a" {
		t.Fatalf("starts = %v, want only a at submit time", starts)
	}
	eng.RunAll()
	ja, _ := m.Get("a")
	jb, _ := m.Get("b")
	if ja.FinishedAt != sim.Seconds(10) || jb.FinishedAt != sim.Seconds(20) {
		t.Fatalf("finish a=%v b=%v, want 10s/20s (FIFO)", ja.FinishedAt, jb.FinishedAt)
	}
	// Jobs behind a fully-served head still share leftover slots: with 2
	// slots and a 1-map head job, the second job backfills immediately.
	eng2 := sim.NewEngine()
	m2 := New(eng2, Config{SlotsPerNode: 1})
	for i := 0; i < 2; i++ {
		m2.AddNode(framework.Node{ID: fmt.Sprintf("m%d", i), SpeedFactor: 1.0})
	}
	must(t, m2.Submit(mrJob("head", 1, 0, 10, 0)))
	must(t, m2.Submit(mrJob("fill", 1, 0, 10, 0)))
	eng2.RunAll()
	jf, _ := m2.Get("fill")
	if jf.FinishedAt != sim.Seconds(10) {
		t.Fatalf("fill finish = %v, want 10s (leftover slot)", jf.FinishedAt)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := New(sim.NewEngine(), Config{})
	if err := m.Submit(mrJob("", 1, 0, 10, 0)); !errors.Is(err, framework.ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Submit(mrJob("a", 0, 0, 10, 0)); !errors.Is(err, framework.ErrBadJob) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Submit(mrJob("a", 1, 2, 10, 0)); !errors.Is(err, framework.ErrBadJob) {
		t.Fatalf("reduce without work: err = %v", err)
	}
	must(t, m.Submit(mrJob("a", 1, 0, 10, 0)))
	if err := m.Submit(mrJob("a", 1, 0, 10, 0)); !errors.Is(err, framework.ErrJobExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestSuspendLosesInFlightKeepsCompleted(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 1})
	addNodes(m, 1, 1.0)
	// 3 maps of 10s on one slot: at t=15, one map committed, one halfway.
	j := mrJob("a", 3, 0, 10, 0)
	must(t, m.Submit(j))
	eng.Run(sim.Seconds(15))
	must(t, m.Suspend("a"))
	if j.DoneWork != 10 {
		t.Fatalf("DoneWork = %v, want 10 (completed map only)", j.DoneWork)
	}
	if p, _ := m.Progress("a"); p != 10.0/30.0 {
		t.Fatalf("progress = %v", p)
	}
	// The slot must be free.
	if m.FreeNodeCount(false) != 1 {
		t.Fatal("suspension did not free slots")
	}
	must(t, m.Resume("a"))
	eng.RunAll()
	// Remaining 2 maps re-run fully: 15 + 20 = 35s.
	if j.FinishedAt != sim.Seconds(35) {
		t.Fatalf("FinishedAt = %v, want 35s", j.FinishedAt)
	}
	if j.Suspensions != 1 {
		t.Fatalf("Suspensions = %d", j.Suspensions)
	}
}

func TestSuspendResumeErrors(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{})
	if err := m.Suspend("ghost"); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Resume("ghost"); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("err = %v", err)
	}
	addNodes(m, 1, 1.0)
	must(t, m.Submit(mrJob("a", 1, 0, 10, 0)))
	if err := m.Resume("a"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("resume running: err = %v", err)
	}
	eng.RunAll()
	if err := m.Suspend("a"); !errors.Is(err, framework.ErrJobState) {
		t.Fatalf("suspend done: err = %v", err)
	}
}

// TestNodeDrainFlow runs the Cluster Manager's flow from paper §3.4: a
// node running tasks refuses removal, suspending the job frees its
// slots, and a free node is removed.
func TestNodeDrainFlow(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 2})
	addNodes(m, 2, 1.0)
	must(t, m.Submit(mrJob("a", 8, 0, 100, 0)))
	eng.Run(sim.Seconds(10))
	nodes, err := fwtest.JobNodes(m, "a")
	must(t, err)
	if fmt.Sprint(nodes) != "[n00 n01]" {
		t.Fatalf("job nodes = %v", nodes)
	}
	if err := m.RemoveNode("n01"); !errors.Is(err, framework.ErrNodeBusy) {
		t.Fatalf("busy node removed: %v", err)
	}
	must(t, m.Suspend("a"))
	if got := fwtest.FreeNodes(m, false); fmt.Sprint(got) != "[n00 n01]" {
		t.Fatalf("free after suspension = %v, want [n00 n01]", got)
	}
	must(t, m.RemoveNode("n01"))
	if m.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	// Resume on the remaining node: all 8 maps re-run there.
	must(t, m.Resume("a"))
	eng.RunAll()
	j, _ := m.Get("a")
	if j.State != framework.JobDone {
		t.Fatalf("state = %v", j.State)
	}
}

func TestRunningAndQueuedLists(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 1})
	addNodes(m, 1, 1.0)
	must(t, m.Submit(mrJob("a", 1, 0, 100, 0)))
	must(t, m.Submit(mrJob("b", 1, 0, 100, 0)))
	if r := m.Running(); len(r) != 1 || r[0].ID != "a" {
		t.Fatalf("Running = %v", r)
	}
	if n := m.QueuedJobCount(); n != 1 {
		t.Fatalf("queued = %d, want 1", n)
	}
	if b, _ := m.Get("b"); b.State != framework.JobQueued {
		t.Fatalf("b is %v, want queued", b.State)
	}
}

func TestDefaults(t *testing.T) {
	m := New(sim.NewEngine(), Config{})
	if m.Name() != "mapreduce" || m.Image() != "mapreduce.img" || m.SlotsPerNode() != 2 {
		t.Fatalf("defaults: %q %q %d", m.Name(), m.Image(), m.SlotsPerNode())
	}
}

func TestAddDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	m := New(sim.NewEngine(), Config{})
	m.AddNode(framework.Node{ID: "x"})
	m.AddNode(framework.Node{ID: "x"})
}

func TestProgressUnknown(t *testing.T) {
	m := New(sim.NewEngine(), Config{})
	if _, err := m.Progress("nope"); !errors.Is(err, framework.ErrJobUnknown) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := m.Get("nope"); ok {
		t.Fatal("Get(nope) reported ok")
	}
}

// Property: makespan for a map-only job on s total slots equals
// ceil(maps/slots) * taskTime.
func TestPropertyMapWaveMakespan(t *testing.T) {
	f := func(nodes, slots, maps uint8) bool {
		n := int(nodes%4) + 1
		s := int(slots%4) + 1
		k := int(maps%32) + 1
		eng := sim.NewEngine()
		m := New(eng, Config{SlotsPerNode: s})
		addNodes(m, n, 1.0)
		j := mrJob("a", k, 0, 10, 0)
		if err := m.Submit(j); err != nil {
			return false
		}
		eng.RunAll()
		total := n * s
		waves := (k + total - 1) / total
		return m.SlotsPerNode() == s && j.State == framework.JobDone && j.FinishedAt == sim.Seconds(float64(waves)*10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: slot accounting never leaks — after completion all nodes are
// fully free, whatever the job mix.
func TestPropertySlotConservation(t *testing.T) {
	f := func(jobSpecs []uint8) bool {
		eng := sim.NewEngine()
		m := New(eng, Config{SlotsPerNode: 2})
		addNodes(m, 3, 1.0)
		for i, spec := range jobSpecs {
			if i >= 10 {
				break
			}
			maps := int(spec%5) + 1
			reds := int(spec / 64)
			j := mrJob(fmt.Sprintf("j%d", i), maps, reds, 5, 5)
			if err := m.Submit(j); err != nil {
				return false
			}
		}
		eng.RunAll()
		return m.FreeNodeCount(false) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeLosesInFlightTasksOnly(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 1})
	addNodes(m, 2, 1.0)
	// 4 maps of 20 s on 2 slots: at t=30, 2 committed, 2 in flight.
	j := mrJob("a", 4, 0, 20, 0)
	must(t, m.Submit(j))
	eng.Run(sim.Seconds(30))
	if j.DoneWork != 40 {
		t.Fatalf("DoneWork = %v, want 40", j.DoneWork)
	}
	must(t, m.FailNode("n00"))
	if m.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", m.NumNodes())
	}
	eng.RunAll()
	if j.State != framework.JobDone {
		t.Fatalf("state = %v", j.State)
	}
	// Committed work survived; the lost in-flight task re-ran on the
	// survivor along with the remaining one: 30 + kill + 2 sequential
	// tasks on one slot. The second in-flight task (on n01) finishes at
	// 40, the re-run of the killed task at 60.
	if j.FinishedAt != sim.Seconds(60) {
		t.Fatalf("FinishedAt = %v, want 60s", j.FinishedAt)
	}
}

// TestNodeRefStatus: the record AddNode returns reads what InspectNode
// reads while the node is attached, busy with task slots or idle, and
// reports false once RemoveNode or FailNode has dropped it.
func TestNodeRefStatus(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 1})
	ids := []string{"n00", "n01", "c00"}
	refs := make([]framework.NodeRef, len(ids))
	for i, id := range ids {
		refs[i] = m.AddNode(framework.Node{ID: id, SpeedFactor: 1, Cloud: id[0] == 'c'})
	}
	agree := func(what string) {
		t.Helper()
		for i, id := range ids {
			st, ok := refs[i].Status()
			want, wantOK := m.InspectNode(id)
			if st != want || ok != wantOK {
				t.Fatalf("after %s: %s ref reads %+v, %v; InspectNode reads %+v, %v", what, id, st, ok, want, wantOK)
			}
		}
	}
	must(t, m.Submit(mrJob("a", 2, 0, 20, 0))) // one map on n00, one on n01
	agree("submit")
	if st, ok := refs[0].Status(); !ok || !st.Busy {
		t.Fatalf("n00 reads %+v, %v; want busy", st, ok)
	}
	if st, ok := refs[2].Status(); !ok || st.Busy || !st.Cloud {
		t.Fatalf("c00 reads %+v, %v; want idle cloud", st, ok)
	}
	must(t, m.RemoveNode("c00"))
	must(t, m.FailNode("n00"))
	agree("remove and fail")
	for i, id := range ids {
		if _, ok := refs[i].Status(); ok != (id == "n01") {
			t.Fatalf("%s ref reports attached=%v, want %v", id, ok, id == "n01")
		}
	}
}

func TestFailNodeUnknown(t *testing.T) {
	m := New(sim.NewEngine(), Config{})
	if err := m.FailNode("ghost"); !errors.Is(err, framework.ErrNodeUnknown) {
		t.Fatalf("err = %v", err)
	}
}

// --- Slot-bucket index consistency (PR 2) ---

// checkSlotIndexes runs the shared fwtest index check plus the
// MapReduce-specific least-loaded freeSlotNode pick.
func checkSlotIndexes(t *testing.T, m *MapReduce, attachOrder []string) {
	t.Helper()
	fwtest.CheckIndexes(t, m, attachOrder)
	// The least-loaded pick must match a full scan of the node table.
	want, wantUsed := "", 0
	for _, id := range attachOrder {
		ns, ok := m.nodes[id]
		if !ok || ns.usedSlots >= m.SlotsPerNode() {
			continue
		}
		if want == "" || ns.usedSlots < wantUsed {
			want, wantUsed = id, ns.usedSlots
		}
	}
	if got := m.freeSlotNode(); got != want {
		t.Fatalf("freeSlotNode = %q, want %q", got, want)
	}
}

// TestSlotIndexConsistency drives the bucket indexes through task
// launches, completions, suspend/resume, fail and remove, verifying
// them against a full rescan after each step.
func TestSlotIndexConsistency(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 2})
	var attachOrder []string
	add := func(id string, cloud bool) {
		m.AddNode(framework.Node{ID: id, SpeedFactor: 1.0, Cloud: cloud})
		attachOrder = append(attachOrder, id)
	}
	check := func(step string) {
		t.Helper()
		checkSlotIndexes(t, m, attachOrder)
		if t.Failed() {
			t.Fatalf("inconsistent after %s", step)
		}
	}

	add("p0", false)
	add("c0", true)
	add("p1", false)
	check("add 3 nodes")

	// 12 tasks over 6 slots: the first wave fills every node.
	must(t, m.Submit(mrJob("j1", 12, 0, 100, 0)))
	check("launch j1 tasks")

	eng.Run(sim.Seconds(100)) // first map wave completes
	check("first wave done")

	must(t, m.Suspend("j1")) // kills in-flight tasks, frees all slots
	check("suspend j1")

	must(t, m.Resume("j1")) // relaunches on every node
	check("resume j1")

	must(t, m.FailNode("p0")) // in-flight tasks on p0 lost
	attachOrder = []string{"c0", "p1"}
	check("fail p0")

	eng.RunAll() // j1 drains on c0 and p1
	check("run to completion")

	must(t, m.RemoveNode("p1")) // free node removed
	attachOrder = []string{"c0"}
	check("remove p1")

	j, _ := m.Get("j1")
	if j.State != framework.JobDone {
		t.Fatalf("j1 state = %v, want done", j.State)
	}
}

// TestVisitJobNodesDeterministicOrder: visits follow first-use order —
// never Go map order — so float aggregates over them reproduce run to
// run.
func TestVisitJobNodesDeterministicOrder(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, Config{SlotsPerNode: 2})
	addNodes(m, 3, 1.0)
	must(t, m.Submit(mrJob("j", 6, 0, 100, 0)))
	collect := func() []string {
		var out []string
		must(t, m.VisitJobNodes("j", func(id string) bool {
			out = append(out, id)
			return true
		}))
		return out
	}
	want := fmt.Sprint([]string{"n00", "n01", "n02"}) // least-loaded spread order
	for i := 0; i < 3; i++ {
		if got := fmt.Sprint(collect()); got != want {
			t.Fatalf("visit %d = %v, want %v", i, got, want)
		}
	}
}
