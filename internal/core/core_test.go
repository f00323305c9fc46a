package core

import (
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// onevcConfig returns a minimal single-VC platform config without clouds.
func onevcConfig(vms int) Config {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: vms}}
	cfg.Clouds = []cloud.Config{}
	return cfg
}

func newPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, p *Platform, w workload.Workload) *Results {
	t.Helper()
	res, err := p.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func batchApp(id, vc string, at float64, work float64) workload.App {
	return workload.App{
		ID: id, Type: workload.TypeBatch, VC: vc,
		SubmitAt: sim.Seconds(at), VMs: 1, Work: work,
	}
}

func TestNewPlatformDefaults(t *testing.T) {
	p := newPlatform(t, DefaultConfig())
	if got := p.VMM.Capacity(); got != 50 {
		t.Fatalf("private capacity = %d, want 50", got)
	}
	if len(p.VCNames()) != 2 {
		t.Fatalf("VCs = %v", p.VCNames())
	}
	for _, name := range p.VCNames() {
		cm, ok := p.CM(name)
		if !ok {
			t.Fatalf("missing CM %s", name)
		}
		if cm.Avail() != 25 {
			t.Fatalf("%s avail = %d, want 25", name, cm.Avail())
		}
		if cm.OwnedPrivate != 25 {
			t.Fatalf("%s owned = %d, want 25", name, cm.OwnedPrivate)
		}
	}
	if p.VMM.Active() != 50 {
		t.Fatalf("deployed VMs = %d, want 50", p.VMM.Active())
	}
}

func TestNewPlatformValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: "quantum", InitialVMs: 1}}
	if _, err := NewPlatform(cfg); err == nil {
		t.Fatal("unsupported VC type must fail")
	}
	cfg = DefaultConfig()
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 30},
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 30},
	}
	if _, err := NewPlatform(cfg); err == nil {
		t.Fatal("duplicate VC name must fail")
	}
	cfg = DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 99}}
	if _, err := NewPlatform(cfg); err == nil {
		t.Fatal("over-allocation must fail")
	}
	cfg = DefaultConfig()
	cfg.UserVMPrice = 1 // below cloud cost 4
	if _, err := NewPlatform(cfg); err == nil {
		t.Fatal("user price below cloud cost must fail (paper §4.2.1)")
	}
}

func TestSingleAppRunsLocally(t *testing.T) {
	p := newPlatform(t, onevcConfig(2))
	res := run(t, p, workload.Workload{batchApp("a", "vc1", 0, 1550)})
	rec := res.Ledger.Get("a")
	if rec == nil {
		t.Fatal("no record")
	}
	if rec.Placement != metrics.PlacementLocal {
		t.Fatalf("placement = %v", rec.Placement)
	}
	proc := sim.ToSeconds(rec.ProcessingTime())
	if proc < 7 || proc > 15 {
		t.Fatalf("processing time = %v s, want within Table 1 local range 7-15", proc)
	}
	if got := sim.ToSeconds(rec.ExecTime()); got != 1550 {
		t.Fatalf("exec = %v s, want 1550", got)
	}
	if !rec.MetDeadline() {
		t.Fatalf("deadline missed: end=%v deadline=%v", rec.EndTime, rec.Deadline)
	}
	// Cost: 1550 s * 1 VM * 2 units = 3100.
	if rec.Cost != 3100 {
		t.Fatalf("cost = %v, want 3100", rec.Cost)
	}
	if rec.Price <= 0 {
		t.Fatalf("price = %v", rec.Price)
	}
	if res.Counters.BidRounds.Count != 0 {
		t.Fatal("local placement must not trigger bidding")
	}
}

func TestLocalPlacementExactPrice(t *testing.T) {
	// With explicit conservative speed 1.0 and no clouds, the estimate
	// equals the work: price = 1550 * 1 * 4 = 6200.
	cfg := onevcConfig(2)
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{batchApp("a", "vc1", 0, 1550)})
	rec := res.Ledger.Get("a")
	if rec.Price != 6200 {
		t.Fatalf("price = %v, want 6200", rec.Price)
	}
	if rec.Revenue() != 6200 {
		t.Fatalf("revenue = %v", rec.Revenue())
	}
	if got := rec.Profit(); got != 6200-3100 {
		t.Fatalf("profit = %v", got)
	}
}

func TestBorrowFreeVMsFromPeer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1},
		{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 3},
	}
	cfg.Clouds = nil // falls back to default? ensure no clouds:
	cfg.Clouds = []cloud.Config{}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 500),
		batchApp("b", "vc1", 10, 500), // vc1 full -> borrows from vc2
	})
	recB := res.Ledger.Get("b")
	if recB.Placement != metrics.PlacementVC {
		t.Fatalf("placement = %v, want vc-vm", recB.Placement)
	}
	proc := sim.ToSeconds(recB.ProcessingTime())
	if proc < 40 || proc > 62 {
		t.Fatalf("vc-vm processing = %v s, want ~Table 1 range 40-58", proc)
	}
	if res.Counters.VMTransfers.Count != 1 {
		t.Fatalf("transfers = %d", res.Counters.VMTransfers.Count)
	}
	if res.Counters.Suspensions.Count != 0 {
		t.Fatal("free transfer must not suspend")
	}
	// Ownership moved: vc1 now owns 2 private VMs, vc2 owns 2.
	vc1, _ := p.CM("vc1")
	vc2, _ := p.CM("vc2")
	if vc1.OwnedPrivate != 2 || vc2.OwnedPrivate != 2 {
		t.Fatalf("ownership = %d/%d, want 2/2", vc1.OwnedPrivate, vc2.OwnedPrivate)
	}
	if vc1.OwnedPrivate+vc2.OwnedPrivate != 4 {
		t.Fatal("private VM conservation violated")
	}
	if !recB.MetDeadline() {
		t.Fatal("borrowed app missed deadline")
	}
}

func TestCloudBurstWhenNoPeerCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1}}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 1550),
		batchApp("b", "vc1", 10, 1550),
	})
	recB := res.Ledger.Get("b")
	if recB.Placement != metrics.PlacementCloud {
		t.Fatalf("placement = %v, want cloud-vm", recB.Placement)
	}
	proc := sim.ToSeconds(recB.ProcessingTime())
	if proc < 59 || proc > 84 {
		t.Fatalf("cloud processing = %v s, want Table 1 range 60-84", proc)
	}
	// Cloud exec: 1550 reference / (1550/1670) speed = 1670 s.
	exec := sim.ToSeconds(recB.ExecTime())
	if exec < 1669.9 || exec > 1670.1 {
		t.Fatalf("cloud exec = %v s, want 1670", exec)
	}
	if !recB.MetDeadline() {
		t.Fatalf("cloud app missed deadline: end %v deadline %v", recB.EndTime, recB.Deadline)
	}
	// Cloud cost: 1670 * 4 = 6680.
	if recB.Cost < 6679 || recB.Cost > 6681 {
		t.Fatalf("cloud cost = %v, want ~6680", recB.Cost)
	}
	if res.Counters.CloudLeases.Count != 1 {
		t.Fatalf("leases = %d", res.Counters.CloudLeases.Count)
	}
	// The lease must be terminated after completion.
	for _, prov := range p.Clouds {
		if prov.Active() != 0 {
			t.Fatalf("provider %s still has %d active leases", prov.Name(), prov.Active())
		}
	}
	if res.CloudSpend <= 0 {
		t.Fatal("no cloud spend recorded")
	}
}

func TestLocalSuspensionWhenCheaperThanCloud(t *testing.T) {
	// No clouds; the only way to host the short app is suspending the
	// long-running victim, whose slack (~84 s minus processing) exceeds
	// the short app's duration -> bid = min suspension cost only.
	cfg := onevcConfig(1)
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("victim", "vc1", 0, 1000),
		batchApp("quick", "vc1", 20, 10),
	})
	recQ := res.Ledger.Get("quick")
	recV := res.Ledger.Get("victim")
	if recQ.Placement != metrics.PlacementLocal {
		t.Fatalf("quick placement = %v", recQ.Placement)
	}
	if res.Counters.Suspensions.Count != 1 {
		t.Fatalf("suspensions = %d, want 1", res.Counters.Suspensions.Count)
	}
	if res.Counters.Resumes.Count != 1 {
		t.Fatalf("resumes = %d, want 1", res.Counters.Resumes.Count)
	}
	if !recV.Suspended {
		t.Fatal("victim not marked suspended")
	}
	if recV.EndTime == 0 {
		t.Fatal("victim never completed")
	}
	// The victim's slack absorbed the interruption.
	if !recV.MetDeadline() {
		t.Fatalf("victim missed deadline by %v", recV.Delay())
	}
	if !recQ.MetDeadline() {
		t.Fatal("quick app missed deadline")
	}
	procQ := sim.ToSeconds(recQ.ProcessingTime())
	if procQ < 11 || procQ > 21 {
		t.Fatalf("local-after-suspension processing = %v s, want ~Table 1 range 10-17", procQ)
	}
}

func TestRemoteSuspensionLoanAndReturn(t *testing.T) {
	// vc1 has no VMs at all; vc2's only VM runs a slack-rich victim.
	// The short vc1 app borrows via remote suspension; at completion the
	// VM returns to vc2 and the victim resumes.
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 0},
		{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 1},
	}
	cfg.Clouds = []cloud.Config{}
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("victim", "vc2", 0, 2000),
		batchApp("quick", "vc1", 20, 10),
	})
	recQ := res.Ledger.Get("quick")
	recV := res.Ledger.Get("victim")
	if recQ.Placement != metrics.PlacementVC {
		t.Fatalf("quick placement = %v, want vc-vm", recQ.Placement)
	}
	if res.Counters.Suspensions.Count != 1 || res.Counters.Resumes.Count != 1 {
		t.Fatalf("suspensions/resumes = %d/%d, want 1/1",
			res.Counters.Suspensions.Count, res.Counters.Resumes.Count)
	}
	if res.Counters.LoanReturns.Count != 1 {
		t.Fatalf("loan returns = %d, want 1", res.Counters.LoanReturns.Count)
	}
	if recV.EndTime == 0 || recQ.EndTime == 0 {
		t.Fatal("applications did not complete")
	}
	vc2, _ := p.CM("vc2")
	if vc2.OwnedPrivate != 1 {
		t.Fatalf("vc2 owned = %d after return, want 1", vc2.OwnedPrivate)
	}
	procQ := sim.ToSeconds(recQ.ProcessingTime())
	if procQ < 55 || procQ > 80 {
		t.Fatalf("vc-after-suspension processing = %v s, want ~Table 1 range 60-68", procQ)
	}
}

// TestDelayedAttachCrashIsReplaced crashes a VM during the configure
// delay of the two delayed attaches the loan fixture above goes
// through: the first running VM attached to no Cluster Manager is
// vc1's transferred VM (t≈79 s), the second is vc2's returned one
// (t≈129 s). The refused VM must be requested again, or the transfer
// leaves both applications waiting forever, and the return leaves the
// victim suspended. The engine steps to a fixed horizon instead of
// draining, so a lost VM fails the test instead of hanging it.
func TestDelayedAttachCrashIsReplaced(t *testing.T) {
	for _, tc := range []struct {
		name string
		nth  int // which unattached running VM to crash
	}{{"transfer", 1}, {"loan-return", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.VCs = []VCConfig{
				{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 0},
				{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 1},
			}
			cfg.Clouds = []cloud.Config{}
			cfg.ConservativeSpeed = 1.0
			p := newPlatform(t, cfg)
			s, err := p.Open()
			if err != nil {
				t.Fatal(err)
			}
			for _, app := range []workload.App{
				batchApp("victim", "vc2", 0, 2000),
				batchApp("quick", "vc1", 20, 10),
			} {
				if _, err := s.SubmitWith(app, nil); err != nil {
					t.Fatal(err)
				}
			}
			seen := map[string]bool{}
			crashedAt := sim.Time(-1)
			for p.Eng.Now() < sim.Seconds(10*3600) && p.Eng.Step() {
				if crashedAt >= 0 {
					continue
				}
				for _, vm := range p.VMM.List(vmm.StateRunning) {
					if p.nodes[vm.ID] != nil || seen[vm.ID] {
						continue
					}
					seen[vm.ID] = true
					if len(seen) == tc.nth {
						if err := p.VMM.Crash(vm.ID); err != nil {
							t.Fatal(err)
						}
						crashedAt = p.Eng.Now()
					}
				}
			}
			if crashedAt < 0 {
				t.Fatalf("only %d unattached running VMs appeared, want %d", len(seen), tc.nth)
			}
			if m := s.Metrics(); m.Settled != 2 {
				t.Errorf("%d of 2 applications settled after a crash at %v", m.Settled, crashedAt)
			}
			vc2, _ := p.CM("vc2")
			if vc2.OwnedPrivate != 1 {
				t.Errorf("vc2 owns %d private VMs, want its 1 back", vc2.OwnedPrivate)
			}
			if err := p.AuditNow(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStaticPolicyNeverBidsOrExchanges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = PolicyStatic
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1},
		{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 10},
	}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 500),
		batchApp("b", "vc1", 10, 500), // vc2 has 10 free VMs, but static bursts
	})
	if res.Counters.BidRounds.Count != 0 {
		t.Fatal("static policy ran a bid round")
	}
	if res.Counters.VMTransfers.Count != 0 {
		t.Fatal("static policy transferred VMs")
	}
	if res.Ledger.Get("b").Placement != metrics.PlacementCloud {
		t.Fatalf("placement = %v, want cloud", res.Ledger.Get("b").Placement)
	}
}

func TestPendingAppWaitsForCapacity(t *testing.T) {
	cfg := onevcConfig(1)
	cfg.DisableSuspension = true // no suspension, no clouds -> must wait
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 100),
		batchApp("b", "vc1", 5, 100),
	})
	recB := res.Ledger.Get("b")
	if recB.EndTime == 0 {
		t.Fatal("pending app never ran")
	}
	// b had to wait for a to finish (~112 s), far past its arrival.
	if start := sim.ToSeconds(recB.StartTime); start < 100 {
		t.Fatalf("b started at %v s, want after a finished", start)
	}
	if res.Counters.PendingRetries.Count == 0 {
		t.Fatal("no pending retries counted")
	}
}

func TestCloudFailoverToSecondProvider(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1}}
	flaky := DefaultConfig().Clouds[0]
	flaky.Name = "flaky"
	flaky.FailureProb = 1.0
	backup := DefaultConfig().Clouds[0]
	backup.Name = "backup"
	backup.Types = []cloud.InstanceType{{
		Name: "medium", Shape: vmm.DefaultShape, SpeedFactor: paperCloudSpeed, Price: 5,
	}}
	cfg.Clouds = []cloud.Config{flaky, backup}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 500),
		batchApp("b", "vc1", 10, 500),
	})
	recB := res.Ledger.Get("b")
	if recB.Placement != metrics.PlacementCloud {
		t.Fatalf("placement = %v", recB.Placement)
	}
	if res.Counters.CloudFailures.Count == 0 {
		t.Fatal("no cloud failure recorded")
	}
	if recB.EndTime == 0 {
		t.Fatal("app did not complete despite failover")
	}
	// It must have paid backup's higher price: 500/(1550/1670)*5.
	if recB.Cost <= 500*4 {
		t.Fatalf("cost = %v, expected backup pricing", recB.Cost)
	}
}

func TestViolationDetectionAndPenalty(t *testing.T) {
	// The estimate assumes speed 1.0 but the site is 2x slower, so the
	// app blows its deadline; the App Controller must notice and the
	// settlement must include a penalty.
	cfg := onevcConfig(2)
	cfg.Site.SpeedFactor = 0.5
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{batchApp("a", "vc1", 0, 1000)})
	rec := res.Ledger.Get("a")
	if rec.MetDeadline() {
		t.Fatal("app should have missed its deadline")
	}
	if rec.Penalty <= 0 {
		t.Fatal("no penalty applied")
	}
	if res.Counters.Violations.Count != 1 {
		t.Fatalf("violations = %d, want 1", res.Counters.Violations.Count)
	}
	if res.Counters.Projected.Count == 0 {
		t.Fatal("no projected violation reported")
	}
	if rec.Revenue() >= rec.Price {
		t.Fatal("revenue not reduced by penalty")
	}
	// Penalty per Eq. 3: delay * 1 VM * 4 units / N=1.
	delay := sim.ToSeconds(rec.Delay())
	want := delay * 4
	if diff := rec.Penalty - want; diff < -0.01 || diff > 0.01 {
		t.Fatalf("penalty = %v, want %v", rec.Penalty, want)
	}
}

type recordingEnforcer struct {
	projected, hard int
}

func (e *recordingEnforcer) OnViolation(_ *ClusterManager, _ string, projected bool) {
	if projected {
		e.projected++
	} else {
		e.hard++
	}
}

func TestEnforcerHook(t *testing.T) {
	cfg := onevcConfig(2)
	cfg.Site.SpeedFactor = 0.5
	cfg.ConservativeSpeed = 1.0
	enf := &recordingEnforcer{}
	cfg.Enforcer = enf
	p := newPlatform(t, cfg)
	run(t, p, workload.Workload{batchApp("a", "vc1", 0, 1000)})
	if enf.hard != 1 || enf.projected != 1 {
		t.Fatalf("enforcer calls = %d hard / %d projected, want 1/1", enf.hard, enf.projected)
	}
}

func TestRejectionOfMalformedApp(t *testing.T) {
	p := newPlatform(t, onevcConfig(2))
	res := run(t, p, workload.Workload{
		{ID: "bad", Type: workload.TypeBatch, VC: "vc1", VMs: 0, Work: 10},
	})
	if res.Counters.Rejections.Count != 1 {
		t.Fatalf("rejections = %d", res.Counters.Rejections.Count)
	}
}

func TestRunUnknownVCFails(t *testing.T) {
	p := newPlatform(t, onevcConfig(1))
	if _, err := p.Run(workload.Workload{batchApp("a", "nope", 0, 10)}); err == nil {
		t.Fatal("unknown VC must fail")
	}
}

func TestMapReduceVCEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "mr", Type: workload.TypeMapReduce, InitialVMs: 4, SlotsPerNode: 2}}
	cfg.Clouds = []cloud.Config{}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{{
		ID: "job1", Type: workload.TypeMapReduce, VC: "mr",
		SubmitAt: 0, VMs: 4,
		MapTasks: 16, ReduceTasks: 4, MapWork: 60, ReduceWork: 30,
	}})
	rec := res.Ledger.Get("job1")
	if rec.EndTime == 0 {
		t.Fatal("MR job did not complete")
	}
	if rec.Placement != metrics.PlacementLocal {
		t.Fatalf("placement = %v", rec.Placement)
	}
	// 16 maps / 8 slots = 2 waves * 60 s + 4 reduces / 8 slots = 1 wave
	// * 30 s = 150 s total execution.
	exec := sim.ToSeconds(rec.ExecTime())
	if exec != 150 {
		t.Fatalf("MR exec = %v s, want 150", exec)
	}
	if !rec.MetDeadline() {
		t.Fatal("MR job missed deadline")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyMeryn.String() != "meryn" || PolicyStatic.String() != "static" {
		t.Fatal("Policy.String mismatch")
	}
}

func TestClientManagerRoutesByType(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{
		{Name: "batchvc", Type: workload.TypeBatch, InitialVMs: 2},
		{Name: "mrvc", Type: workload.TypeMapReduce, InitialVMs: 2},
	}
	cfg.Clouds = []cloud.Config{}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		{ID: "nobody", Type: workload.TypeBatch, SubmitAt: 0, VMs: 1, Work: 10}, // no VC named
	})
	rec := res.Ledger.Get("nobody")
	if rec == nil || rec.VC != "batchvc" {
		t.Fatalf("type routing failed: %+v", rec)
	}
}

func TestDeadlineBoundUserBuysExtraVMs(t *testing.T) {
	// A 1-VM request with a tight user deadline: the negotiation's
	// scale-out offers let the user buy 2 dedicated VMs end-to-end.
	cfg := onevcConfig(4)
	cfg.ConservativeSpeed = 1.0
	cfg.UserStrategy = func(app workload.App) sla.User {
		return sla.DeadlineBound{Deadline: sim.Seconds(1000)}
	}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{batchApp("a", "vc1", 0, 1550)})
	rec := res.Ledger.Get("a")
	if rec.NumVMs != 2 {
		t.Fatalf("NumVMs = %d, want 2 (scale-out purchase)", rec.NumVMs)
	}
	if !rec.MetDeadline() {
		t.Fatalf("missed: end %v deadline %v", rec.EndTime, rec.Deadline)
	}
	// Exec on 2 VMs: 1550/2 = 775 s.
	if got := sim.ToSeconds(rec.ExecTime()); got != 775 {
		t.Fatalf("exec = %v s, want 775", got)
	}
}
