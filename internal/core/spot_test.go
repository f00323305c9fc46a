package core

import (
	"sort"
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// cloudNodeIDs lists the VC's attached cloud nodes in stable order.
func cloudNodeIDs(cm *ClusterManager) []string {
	var out []string
	for _, info := range cm.attached {
		if info.cloud {
			out = append(out, info.id)
		}
	}
	sort.Strings(out)
	return out
}

// revokeFirstCloudNode injects a provider-side spot revocation into the
// VC's first attached cloud node at the given time — the deterministic
// stand-in for the market crossing the bid.
func revokeFirstCloudNode(t *testing.T, p *Platform, vc string, at sim.Time) {
	t.Helper()
	p.Eng.At(at, func() {
		cm, _ := p.CM(vc)
		ids := cloudNodeIDs(cm)
		if len(ids) == 0 {
			t.Fatalf("no cloud node attached to %s at %v", vc, at)
		}
		info := cm.node(ids[0])
		if err := info.provider.Revoke(info.id); err != nil {
			t.Fatalf("Revoke: %v", err)
		}
	})
}

// crashFirstCloudNode injects a VM crash into the VC's first attached
// cloud node (the lease stays active provider-side until settled).
func crashFirstCloudNode(t *testing.T, p *Platform, vc string, at sim.Time) {
	t.Helper()
	p.Eng.At(at, func() {
		cm, _ := p.CM(vc)
		ids := cloudNodeIDs(cm)
		if len(ids) == 0 {
			t.Fatalf("no cloud node attached to %s at %v", vc, at)
		}
		cm.handleNodeCrash(cm.node(ids[0]))
	})
}

// assertCloudQuiesced checks the conservation invariants after a run
// that lost cloud nodes: every lease settled (no provider active count,
// no gauge residue, no lease-table growth) and the VC back to its
// private baseline.
func assertCloudQuiesced(t *testing.T, p *Platform, vc string, ownedPrivate int) {
	t.Helper()
	for _, prov := range p.Clouds {
		if prov.Active() != 0 {
			t.Fatalf("provider %s leaked %d active leases", prov.Name(), prov.Active())
		}
		if prov.LeaseCount() != 0 {
			t.Fatalf("provider %s lease table not pruned: %d", prov.Name(), prov.LeaseCount())
		}
		if prov.UsedGauge.Value() != 0 {
			t.Fatalf("provider %s gauge = %d, want 0", prov.Name(), prov.UsedGauge.Value())
		}
	}
	if p.CloudUsed.Value() != 0 {
		t.Fatalf("platform cloud-used gauge = %d, want 0", p.CloudUsed.Value())
	}
	cm, _ := p.CM(vc)
	if cm.OwnedPrivate != ownedPrivate {
		t.Fatalf("%s owned private = %d, want %d", vc, cm.OwnedPrivate, ownedPrivate)
	}
	if cm.avail != ownedPrivate {
		t.Fatalf("%s avail = %d, want baseline %d", vc, cm.avail, ownedPrivate)
	}
	if got := len(cloudNodeIDs(cm)); got != 0 {
		t.Fatalf("%s still holds %d cloud nodes", vc, got)
	}
}

// spotVCConfig is a one-VC platform whose cloud bursts are preemptible:
// fixed pricing (so the only revocations are the injected ones) and a
// spot policy on the VC.
func spotVCConfig(vcType workload.AppType, vms int) Config {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{
		Name: "vc1", Type: vcType, InitialVMs: vms,
		Spot: &SpotPolicy{BidMultiplier: 1.5},
	}}
	cfg.ConservativeSpeed = 1.0
	return cfg
}

func TestSpotRevocationBatchLifecycle(t *testing.T) {
	p := newPlatform(t, spotVCConfig(workload.TypeBatch, 1))
	revokeFirstCloudNode(t, p, "vc1", sim.Seconds(300))
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 1550),
		batchApp("b", "vc1", 10, 1550), // bursts to a spot lease
	})

	recB := res.Ledger.Get("b")
	if recB.EndTime == 0 {
		t.Fatal("revoked app never completed")
	}
	if res.Counters.SpotRevocations.Count != 1 {
		t.Fatalf("revocations = %d, want 1", res.Counters.SpotRevocations.Count)
	}
	if res.Counters.SpotLeases.Count < 2 {
		t.Fatalf("spot leases = %d, want original + replacement", res.Counters.SpotLeases.Count)
	}
	if recB.Revocations != 1 {
		t.Fatalf("app revocation count = %d", recB.Revocations)
	}
	// The work lost to the revocation reran: completion is far past the
	// no-revocation end (~10+80+1670).
	if end := sim.ToSeconds(recB.EndTime); end < 1900 {
		t.Fatalf("end = %v s, expected post-revocation rerun", end)
	}
	// The revoked lease settled a partial charge and the replacement a
	// full one.
	if res.SpotSpend <= 0 || res.CloudSpend != res.SpotSpend {
		t.Fatalf("spend = %v/%v, want all-spot spend", res.SpotSpend, res.CloudSpend)
	}
	assertCloudQuiesced(t, p, "vc1", 1)
}

func TestSpotRevocationMapReduceLifecycle(t *testing.T) {
	p := newPlatform(t, spotVCConfig(workload.TypeMapReduce, 1))
	revokeFirstCloudNode(t, p, "vc1", sim.Seconds(300))
	res := run(t, p, workload.Workload{{
		ID: "job1", Type: workload.TypeMapReduce, VC: "vc1",
		SubmitAt: 0, VMs: 4,
		MapTasks: 16, ReduceTasks: 4, MapWork: 120, ReduceWork: 60,
	}})

	rec := res.Ledger.Get("job1")
	if rec.EndTime == 0 {
		t.Fatal("MR job never completed after revocation")
	}
	if res.Counters.SpotRevocations.Count != 1 {
		t.Fatalf("revocations = %d, want 1", res.Counters.SpotRevocations.Count)
	}
	if rec.Revocations != 1 {
		t.Fatalf("record revocations = %d", rec.Revocations)
	}
	// In-flight tasks on the revoked node reran elsewhere (committed
	// task output survives, Hadoop semantics) on the replacement lease.
	if res.Counters.SpotLeases.Count < 5 {
		t.Fatalf("spot leases = %d, want 4 + replacement", res.Counters.SpotLeases.Count)
	}
	assertCloudQuiesced(t, p, "vc1", 1)
}

func TestSpotRevocationServiceLifecycle(t *testing.T) {
	cfg := spotVCConfig(workload.TypeService, 1)
	cfg.VCs[0].Name = "svc1"
	p := newPlatform(t, cfg)
	revokeFirstCloudNode(t, p, "svc1", sim.Seconds(400))
	res := run(t, p, workload.Workload{
		steadyService("web-0", 3, 10, 1800, 25), // needs 3 replicas; 1 private VM forces a burst
	})

	rec := res.Ledger.Get("web-0")
	if rec.EndTime == 0 {
		t.Fatal("service never completed after revocation")
	}
	if res.Counters.SpotRevocations.Count != 1 {
		t.Fatalf("revocations = %d, want 1", res.Counters.SpotRevocations.Count)
	}
	if rec.Revocations != 1 {
		t.Fatalf("record revocations = %d", rec.Revocations)
	}
	// Losing one replica of many is survivable: the service must not
	// have gone down, and it ran its full lifetime.
	if exec := sim.ToSeconds(rec.ExecTime()); exec < 1800 || exec > 1900 {
		t.Fatalf("exec = %v s, want ~1800 (no restart-from-zero)", exec)
	}
	assertCloudQuiesced(t, p, "svc1", 1)
}

// TestCloudNodeCrashSettlesLease is the handleNodeCrash regression: a
// crashed cloud node used to be treated as a private VM — OwnedPrivate
// decremented, a private replacement provisioned, and the lease leaked
// (provider active count and gauge inflated forever, charge never
// settled). It must settle the lease and re-lease cloud capacity.
func TestCloudNodeCrashSettlesLease(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1}}
	cfg.ConservativeSpeed = 1.0
	p := newPlatform(t, cfg)
	crashFirstCloudNode(t, p, "vc1", sim.Seconds(300))
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 1550),
		batchApp("b", "vc1", 10, 1550), // bursts to an on-demand lease
	})

	recB := res.Ledger.Get("b")
	if recB.EndTime == 0 {
		t.Fatal("app on crashed cloud node never completed")
	}
	if res.Counters.NodeCrashes.Count != 1 {
		t.Fatalf("crashes = %d", res.Counters.NodeCrashes.Count)
	}
	// No private replacement for a cloud crash, and no spot machinery
	// involved (the VC has no spot policy).
	if res.Counters.Replacements.Count != 0 {
		t.Fatalf("private replacements = %d, want 0 for a cloud crash", res.Counters.Replacements.Count)
	}
	if res.Counters.SpotLeases.Count != 0 || res.SpotSpend != 0 {
		t.Fatalf("spot activity on an on-demand VC: leases=%d spend=%v",
			res.Counters.SpotLeases.Count, res.SpotSpend)
	}
	if recB.Revocations != 1 {
		t.Fatalf("record cloud losses = %d, want 1", recB.Revocations)
	}
	// The crashed lease settled its charge (partial) plus the
	// replacement lease's full run.
	if res.CloudSpend <= 1670*4 {
		t.Fatalf("cloud spend = %v, want crashed partial + replacement full", res.CloudSpend)
	}
	assertCloudQuiesced(t, p, "vc1", 1)
}

// TestCrashOfIdleCloudNodeJustSettles: an idle cloud node (attached,
// uncommitted) crashing must settle without replacement leasing.
func TestCrashOfIdleCloudNodeBoostSettles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = []VCConfig{{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 1}}
	p := newPlatform(t, cfg)
	cm, _ := p.CM("vc1")
	p.Eng.At(sim.Seconds(1), func() { cm.BoostWithCloud(1) })
	// The boost attaches by ~70 s; crash it while idle, before app a's
	// finish would garbage-collect it.
	crashFirstCloudNode(t, p, "vc1", sim.Seconds(90))
	res := run(t, p, workload.Workload{batchApp("a", "vc1", 0, 100)})
	if res.Counters.CloudLeases.Count != 1 {
		t.Fatalf("leases = %d, want the boost only (no replacement for idle loss)", res.Counters.CloudLeases.Count)
	}
	if res.CloudSpend <= 0 {
		t.Fatal("boost lease charge never settled")
	}
	assertCloudQuiesced(t, p, "vc1", 1)
}

// TestMarketRevocationEndToEnd drives the real market watch: volatile
// prices, a bid pinned at the current quote, and a long-running burst —
// the lease must be revoked by a market tick (not injected) and the
// work must still complete via replacement capacity.
func TestMarketRevocationEndToEnd(t *testing.T) {
	cfg := spotVCConfig(workload.TypeBatch, 1)
	cfg.Seed = 5
	cfg.VCs[0].Spot.BidMultiplier = 1.0 // the first uptick revokes
	cfg.VCs[0].Spot.MaxRevocations = 1  // second loss falls back to on-demand
	cfg.Clouds[0].Market = &cloud.MarketConfig{
		Volatility: 0.3, Reversion: 0.2, Floor: 0.5, Tick: sim.Seconds(30),
	}
	p := newPlatform(t, cfg)
	res := run(t, p, workload.Workload{
		batchApp("a", "vc1", 0, 3000),
		batchApp("b", "vc1", 10, 3000),
	})
	if res.Counters.SpotRevocations.Count == 0 {
		t.Fatal("no market revocation at bid == quote under 0.3 volatility (seed artifact?)")
	}
	for _, rec := range res.Ledger.All() {
		if rec.EndTime == 0 {
			t.Fatalf("app %s never completed", rec.ID)
		}
	}
	if res.Counters.SpotFallbacks.Count == 0 {
		t.Fatal("revocation budget exhausted but no on-demand fallback recorded")
	}
	assertCloudQuiesced(t, p, "vc1", 1)
}
