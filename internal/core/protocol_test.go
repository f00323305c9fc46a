package core

import (
	"testing"
	"testing/quick"

	"meryn/internal/cloud"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// bidPlatform builds a platform with one busy batch VC for bid tests:
// `busy` VMs each run a long application; `free` VMs stay idle.
func bidPlatform(t *testing.T, busy, free int) (*Platform, *ClusterManager) {
	t.Helper()
	cfg := onevcConfig(busy + free)
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < busy; i++ {
		if _, err := s.SubmitWith(batchApp(appID(i), "vc1", 0, 5000), nil); err != nil {
			t.Fatal(err)
		}
	}
	p.Eng.Run(sim.Seconds(60)) // all running, none finished
	cm, _ := p.CM("vc1")
	return p, cm
}

func appID(i int) string {
	return "busy-" + string(rune('a'+i))
}

func TestComputeBidZeroWithFreeVMs(t *testing.T) {
	_, cm := bidPlatform(t, 1, 2)
	bid := cm.ComputeBid(1, sim.Seconds(1000))
	if !bid.OK || bid.Cost != 0 {
		t.Fatalf("bid = %+v, want zero bid (free VMs)", bid)
	}
	bid = cm.ComputeBid(2, sim.Seconds(1000))
	if !bid.OK || bid.Cost != 0 {
		t.Fatalf("bid = %+v, want zero (exactly enough free)", bid)
	}
}

func TestComputeBidSuspensionCost(t *testing.T) {
	_, cm := bidPlatform(t, 2, 0)
	// Short duration within the victims' slack: only the minimal
	// suspension cost.
	bid := cm.ComputeBid(1, sim.Seconds(10))
	if !bid.OK {
		t.Fatal("no bid despite suspendable victims")
	}
	if bid.Cost != minSuspensionCost {
		t.Fatalf("cost = %v, want min suspension cost %v", bid.Cost, minSuspensionCost)
	}
	if bid.VictimID == "" {
		t.Fatal("no victim selected")
	}
	// Long duration beyond slack: minimal cost plus a positive penalty.
	long := cm.ComputeBid(1, sim.Seconds(5000))
	if !long.OK || long.Cost <= minSuspensionCost {
		t.Fatalf("long bid = %+v, want penalty on top of %v", long, minSuspensionCost)
	}
}

func TestComputeBidNoCandidates(t *testing.T) {
	// Apps hold 1 VM each; a request for 2 VMs has no viable victim.
	_, cm := bidPlatform(t, 2, 0)
	bid := cm.ComputeBid(2, sim.Seconds(10))
	if bid.OK {
		t.Fatalf("bid = %+v, want no bid (no app holds >= 2 VMs)", bid)
	}
}

func TestComputeBidDisabledSuspension(t *testing.T) {
	cfg := onevcConfig(1)
	cfg.DisableSuspension = true
	p := newPlatform(t, cfg)
	res, err := p.Run(workload.Workload{batchApp("a", "vc1", 0, 5000)})
	_ = res
	_ = err
	cm, _ := p.CM("vc1")
	if bid := cm.ComputeBid(1, sim.Seconds(10)); bid.OK && bid.Cost > 0 {
		t.Fatalf("bid = %+v, suspension disabled must not offer paid bids", bid)
	}
}

// Property: bids are monotone nondecreasing in the requested duration —
// longer borrowings can only delay victims more.
func TestPropertyBidMonotoneInDuration(t *testing.T) {
	_, cm := bidPlatform(t, 3, 0)
	f := func(d1, d2 uint16) bool {
		a, b := sim.Seconds(float64(d1)), sim.Seconds(float64(d2))
		if a > b {
			a, b = b, a
		}
		bidA := cm.ComputeBid(1, a)
		bidB := cm.ComputeBid(1, b)
		if !bidA.OK || !bidB.OK {
			return false
		}
		return bidA.Cost <= bidB.Cost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bids are never negative and zero exactly when enough VMs are
// free.
func TestPropertyBidSignMatchesAvailability(t *testing.T) {
	_, cm := bidPlatform(t, 2, 1)
	f := func(nReq, dur uint8) bool {
		n := int(nReq%3) + 1
		bid := cm.ComputeBid(n, sim.Seconds(float64(dur)+1))
		if bid.Cost < 0 {
			return false
		}
		if cm.Avail() >= n {
			return bid.OK && bid.Cost == 0
		}
		return !bid.OK || bid.Cost > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleOutEnforcerRescuesMapReduceJob(t *testing.T) {
	// The private site is half the speed the SLA estimate assumes, so
	// the MR job trends toward a deadline miss. With the Noop enforcer
	// it is late; ScaleOutEnforcer reacts to the projected-violation
	// warning by adding (full-speed) cloud slots, and the job lands on
	// time.
	build := func(enf Enforcer) *Results {
		cfg := DefaultConfig()
		cfg.VCs = []VCConfig{{Name: "mr", Type: workload.TypeMapReduce, InitialVMs: 4, SlotsPerNode: 2}}
		cfg.Site.SpeedFactor = 0.5
		cfg.ConservativeSpeed = 1.0
		cfg.Enforcer = enf
		p := newPlatform(t, cfg)
		res := run(t, p, workload.Workload{{
			ID: "job", Type: workload.TypeMapReduce, VC: "mr",
			SubmitAt: 0, VMs: 4,
			MapTasks: 24, ReduceTasks: 0, MapWork: 100,
		}})
		return res
	}

	noop := build(NoopEnforcer{})
	recNoop := noop.Ledger.Get("job")
	if recNoop.MetDeadline() {
		t.Fatalf("noop run met its deadline; scenario not stressing enough (end %v deadline %v)",
			recNoop.EndTime, recNoop.Deadline)
	}

	rescued := build(&ScaleOutEnforcer{BoostVMs: 8, MaxBoosts: 1})
	recResc := rescued.Ledger.Get("job")
	if !recResc.MetDeadline() {
		t.Fatalf("scale-out run still late: end %v deadline %v (boost leases: %d)",
			recResc.EndTime, recResc.Deadline, rescued.Counters.CloudLeases.Count)
	}
	if rescued.Counters.CloudLeases.Count == 0 {
		t.Fatal("enforcer never leased")
	}
	// Boosted VMs must be reclaimed.
	if rescued.CloudSpend <= 0 {
		t.Fatal("no cloud spend recorded for boost")
	}
}

func TestScaleOutEnforcerRespectsCap(t *testing.T) {
	e := &ScaleOutEnforcer{BoostVMs: 1, MaxBoosts: 2}
	cfg := DefaultConfig() // keeps the default cloud provider
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 2}}
	p := newPlatform(t, cfg)
	cm, _ := p.CM("vc1")
	for i := 0; i < 5; i++ {
		e.OnViolation(cm, "x", true)
	}
	p.Eng.RunAll()
	if p.Counters.CloudLeases.Count != 2 {
		t.Fatalf("leases = %d, want cap 2", p.Counters.CloudLeases.Count)
	}
	e.OnViolation(cm, "x", false) // hard violations are not boosted
	p.Eng.RunAll()
	if p.Counters.CloudLeases.Count != 2 {
		t.Fatal("hard violation triggered a boost")
	}
}

func TestBoostWithCloudNoProviders(t *testing.T) {
	cfg := onevcConfig(1)
	cfg.Clouds = []cloud.Config{}
	p := newPlatform(t, cfg)
	cm, _ := p.CM("vc1")
	cm.BoostWithCloud(3) // must be a no-op, not a panic
	cm.BoostWithCloud(0)
	p.Eng.RunAll()
	if p.Counters.CloudLeases.Count != 0 {
		t.Fatal("leased without providers")
	}
}

// Property: under random small workloads the platform conserves private
// VMs, leaks no leases and settles every application.
func TestPropertyRandomWorkloadInvariants(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.VCs = []VCConfig{
			{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 3},
			{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 3},
		}
		p, err := NewPlatform(cfg)
		if err != nil {
			return false
		}
		var wl workload.Workload
		for i, s := range sizes {
			vc := "vc1"
			if s%2 == 0 {
				vc = "vc2"
			}
			wl = append(wl, workload.App{
				ID: appIDn(i), Type: workload.TypeBatch, VC: vc,
				SubmitAt: sim.Seconds(float64(i) * 7),
				VMs:      1,
				Work:     float64(s%40)*25 + 50,
			})
		}
		res, err := p.Run(wl)
		if err != nil {
			return false
		}
		total := 0
		for _, name := range p.VCNames() {
			cm, _ := p.CM(name)
			total += cm.OwnedPrivate
		}
		if total != 6 {
			return false
		}
		for _, prov := range p.Clouds {
			if prov.Active() != 0 {
				return false
			}
		}
		for _, rec := range res.Ledger.All() {
			if rec.EndTime == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func appIDn(i int) string {
	return "app-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// TestTieBreakPrefersLocalOverVC: identical suspension economics on both
// VCs must keep the work local (fewer moving parts, the paper's
// comparison order).
func TestTieBreakPrefersLocalOverVC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1},
		{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 1},
	}
	cfg.Clouds = []cloud.Config{}
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("resident1", "vc1", 0, 3000),
		batchApp("resident2", "vc2", 0, 3000),
		batchApp("quick", "vc1", 30, 10),
	})
	rec := res.Ledger.Get("quick")
	if rec.Placement != metrics.PlacementLocal {
		t.Fatalf("placement = %v, want local (tie-break)", rec.Placement)
	}
	// Exactly one suspension, and it must be vc1's resident.
	if res.Counters.Suspensions.Count != 1 {
		t.Fatalf("suspensions = %d", res.Counters.Suspensions.Count)
	}
	if !res.Ledger.Get("resident1").Suspended {
		t.Fatal("wrong victim: local resident should have been suspended")
	}
	if res.Ledger.Get("resident2").Suspended {
		t.Fatal("peer resident suspended despite local tie-break")
	}
}
