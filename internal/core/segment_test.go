package core

import (
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/framework"
	"meryn/internal/workload"
)

// TestSegmentGaugeReleasedForMidSegmentDetach reproduces the usage-gauge
// leak: a MapReduce job opens a cost segment over two nodes, one node
// finishes its tasks early and is detached (as a VM transfer or idle GC
// would), and the job then completes. Releasing the gauges by re-
// resolving node IDs at close time skipped the detached node and left
// the utilization series permanently inflated; recording segment node
// kinds at open time releases both.
func TestSegmentGaugeReleasedForMidSegmentDetach(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeMapReduce, InitialVMs: 2, SlotsPerNode: 1}}
	cfg.Clouds = []cloud.Config{}
	p := newPlatform(t, cfg)
	cm, _ := p.CM("vc1")

	// Three map tasks on two 1-slot nodes: wave one occupies both, the
	// third task re-uses the first node while the second sits idle.
	app := workload.App{
		ID: "mr", Type: workload.TypeMapReduce, VC: "vc1",
		SubmitAt: 0, VMs: 2, MapTasks: 3, MapWork: 100,
	}
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(app, nil); err != nil {
		t.Fatal(err)
	}
	for cm.fw.FreeNodeCount(false) != 1 && p.Eng.Step() {
	}
	if cm.fw.FreeNodeCount(false) != 1 {
		t.Fatal("never reached the one-idle-node state")
	}
	j, ok := cm.fw.Get("mr")
	if !ok || j.State != framework.JobRunning {
		t.Fatalf("job state = %v, want running", j.State)
	}
	if got := p.PrivateUsed.Value(); got != 2 {
		t.Fatalf("private-used mid-run = %d, want 2", got)
	}

	// Detach the idle node mid-segment, exactly as acquireFromVC or a
	// loan return would.
	ids, _ := cm.detachFreeNodes(1, false)
	if len(ids) != 1 {
		t.Fatalf("detached %v, want one node", ids)
	}

	// Drive the job to completion: the close must release BOTH gauge
	// counts even though one node is no longer attached.
	for j.State != framework.JobDone && p.Eng.Step() {
	}
	if j.State != framework.JobDone {
		t.Fatal("job never finished")
	}
	if got := p.PrivateUsed.Value(); got != 0 {
		t.Fatalf("private-used after completion = %d, want 0 (gauge leak)", got)
	}
	// The detached node still bills for the whole segment it opened in:
	// 2 nodes * 200 s * 2 units/VM-s.
	if rec := p.Ledger.Get("mr"); rec.Cost != 800 {
		t.Fatalf("cost = %v, want 800", rec.Cost)
	}
}
