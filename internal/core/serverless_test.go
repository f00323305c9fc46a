package core

import (
	"math"
	"testing"

	"meryn/internal/sim"
	"meryn/internal/workload"
)

// serverlessTestConfig builds a platform with a serverless VC and a
// batch VC.
func serverlessTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.VCs = []VCConfig{
		{Name: "fn1", Type: workload.TypeServerless, InitialVMs: 12},
		{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 8},
	}
	return cfg
}

// onOffFunction builds one function under idle-gap traffic: base req/s
// for activeS out of every periodS seconds.
func onOffFunction(id string, ceiling int, rate, lifetime, base, periodS, activeS float64) workload.App {
	return workload.App{
		ID: id, Type: workload.TypeServerless, VC: "fn1",
		Replicas: ceiling, SvcRate: rate, DurationS: lifetime,
		ColdStartS: 5, ConcTarget: 2, IdleWindowS: 60,
		DeclaredPeak: base,
		Load: &workload.LoadProfile{
			Base:  base,
			OnOff: &workload.OnOff{Period: sim.Seconds(periodS), Active: sim.Seconds(activeS)},
		},
	}
}

// TestServerlessEndToEnd drives one function through the full platform
// path: negotiation with per-invocation pricing, cold activation,
// scale-to-zero across idle gaps, reactivation, and metered settlement
// bounded by the cost cap.
func TestServerlessEndToEnd(t *testing.T) {
	p, err := NewPlatform(serverlessTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(workload.Workload{
		onOffFunction("fn-0", 4, 10, 1800, 20, 300, 150),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Ledger.All()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Type != string(workload.TypeServerless) {
		t.Fatalf("record type = %q, want serverless", rec.Type)
	}
	// The 50% duty cycle with a 60 s idle window forces repeated
	// scale-to-zero and cold reactivation over the 1800 s lifetime.
	if rec.Activations < 2 {
		t.Fatalf("activations = %d, want >= 2 across idle gaps", rec.Activations)
	}
	if rec.ZeroScales < 1 {
		t.Fatalf("zero scales = %d, want >= 1", rec.ZeroScales)
	}
	if rec.ColdStarts == 0 || rec.ColdStartDelayS <= 0 {
		t.Fatalf("cold start accounting missing: starts=%d delay=%gs", rec.ColdStarts, rec.ColdStartDelayS)
	}
	if rec.SLOTarget <= 0 || rec.SLOIntervals == 0 {
		t.Fatalf("SLO accounting missing: target=%g intervals=%d", rec.SLOTarget, rec.SLOIntervals)
	}
	// Pay-per-use settlement: requests were served and metered, and the
	// metered spend never exceeds the agreed quote (the cost cap).
	if rec.Served <= 0 || rec.Metered <= 0 {
		t.Fatalf("invocation accounting missing: served=%g metered=%g", rec.Served, rec.Metered)
	}
	if rec.Price <= 0 {
		t.Fatalf("price = %g, want > 0", rec.Price)
	}
	if rec.Metered > rec.Price+1e-9 {
		t.Fatalf("metered %g exceeds the contracted cost cap %g", rec.Metered, rec.Price)
	}
	// The function ran its full lifetime.
	if exec := sim.ToSeconds(rec.ExecTime()); exec < 1700 || exec > 2000 {
		t.Fatalf("exec = %.0f s, want ~1800", exec)
	}
	// Platform counters mirror the single record.
	if got := res.Counters.Activations.Count; got != int64(rec.Activations) {
		t.Fatalf("activation counter = %d, record says %d", got, rec.Activations)
	}
	if got := res.Counters.ZeroScales.Count; got != int64(rec.ZeroScales) {
		t.Fatalf("zero-scale counter = %d, record says %d", got, rec.ZeroScales)
	}
	if got := res.Counters.ColdStarts.Count; got != int64(rec.ColdStarts) {
		t.Fatalf("cold-start counter = %d, record says %d", got, rec.ColdStarts)
	}
}

// TestServerlessZeroInvocationPremiumOnly: a function with no expected
// traffic (nil profile, zero declared peak) negotiates a premium-only
// contract, spends its whole lifetime at zero instances, and settles
// with zero metered spend — the negotiation edge the adapter documents.
func TestServerlessZeroInvocationPremiumOnly(t *testing.T) {
	p, err := NewPlatform(serverlessTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(workload.Workload{
		{ID: "idle-0", Type: workload.TypeServerless, VC: "fn1",
			Replicas: 1, SvcRate: 10, DurationS: 900, ColdStartS: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.Rejections.Count; got != 0 {
		t.Fatalf("rejections = %d, want 0 (zero-traffic functions are valid)", got)
	}
	rec := res.Ledger.Get("idle-0")
	if rec == nil {
		t.Fatal("no record for idle-0")
	}
	if rec.Served != 0 || rec.Metered != 0 {
		t.Fatalf("served=%g metered=%g, want 0/0 for a function that never fired", rec.Served, rec.Metered)
	}
	if rec.ColdStarts != 0 || rec.Activations != 0 {
		t.Fatalf("cold starts=%d activations=%d, want 0/0", rec.ColdStarts, rec.Activations)
	}
	if rec.PeakReplicas != 0 {
		t.Fatalf("peak replicas = %d, want 0 (never scaled up)", rec.PeakReplicas)
	}
	if rec.Penalty != 0 {
		t.Fatalf("penalty = %g, want 0 with no offered demand", rec.Penalty)
	}
	// The capacity premium is still owed: holding the ceiling available
	// has a price even at zero invocations.
	if rec.Price <= 0 {
		t.Fatalf("price = %g, want > 0 (capacity premium)", rec.Price)
	}
	if att := rec.SLOAttainment(); att != 1 {
		t.Fatalf("attainment = %g, want 1 with no demand", att)
	}
}

// TestServerlessCostCapExhaustionMidCanary: a function that declared a
// peak of 5 req/s but actually offers 20 blows through its metered
// projection mid-run — after a canary revision started taking 10% of
// traffic. The controller must throttle the fleet to one instance
// exactly once, settlement must clamp at the cost cap, and the canary
// split must keep routing on the throttled fleet.
func TestServerlessCostCapExhaustionMidCanary(t *testing.T) {
	p, err := NewPlatform(serverlessTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	app := workload.App{
		ID: "fn-0", Type: workload.TypeServerless, VC: "fn1",
		Replicas: 2, SvcRate: 10, DurationS: 1800,
		ColdStartS: 2, ConcTarget: 1, IdleWindowS: 1e9,
		DeclaredPeak: 5, // sandbagged: the actual base load is 20 req/s
		Load:         &workload.LoadProfile{Base: 20},
	}
	var (
		perInvocation float64
		costCap       float64
		throttledTo   = -1
	)
	// Canary at t=300: deploy v2 and shift 10% of traffic to it, before
	// the metered spend crosses the cap.
	p.Eng.At(sim.Seconds(300), func() {
		cm, ok := p.CM("fn1")
		if !ok {
			t.Error("no cluster manager for fn1")
			return
		}
		st, ok := dispatchedApps(cm)["fn-0"]
		if !ok {
			t.Error("fn-0 not tracked by its CM")
			return
		}
		perInvocation = st.contract.PerInvocation
		costCap = st.contract.CostCap
		fw := cm.serverlessFW()
		if err := fw.DeployRevision("fn-0", "v2"); err != nil {
			t.Errorf("deploy v2: %v", err)
			return
		}
		if err := fw.SetTrafficSplit("fn-0", map[string]int{"rev-1": 90, "v2": 10}); err != nil {
			t.Errorf("set traffic: %v", err)
		}
	})
	// Near the end of the lifetime the throttle has long since fired:
	// the fleet must be clamped at one instance despite 20 req/s offered.
	p.Eng.At(sim.Seconds(1700), func() {
		cm, _ := p.CM("fn1")
		if fw := cm.serverlessFW(); fw != nil {
			if stats, err := fw.FunctionStats("fn-0"); err == nil {
				throttledTo = stats.Instances
			}
		}
	})
	res, err := p.Run(workload.Workload{app})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters.CostCapThrottles.Count; got != 1 {
		t.Fatalf("cost-cap throttles = %d, want exactly 1 (the throttle fires once)", got)
	}
	if throttledTo != 1 {
		t.Fatalf("instances near end of run = %d, want 1 (clamped at the cap)", throttledTo)
	}
	rec := res.Ledger.Get("fn-0")
	if rec == nil {
		t.Fatal("no record for fn-0")
	}
	if perInvocation <= 0 || costCap <= 0 {
		t.Fatalf("contract terms not captured: perInvocation=%g costCap=%g", perInvocation, costCap)
	}
	// The raw pay-per-use spend exceeded the cap; the settled figure
	// clamps at it instead of surprise-billing past the quote.
	if raw := rec.Served * perInvocation; raw <= costCap {
		t.Fatalf("raw spend %g never exceeded cap %g — the scenario lost its teeth", raw, costCap)
	}
	if math.Abs(rec.Metered-costCap) > 1e-9 {
		t.Fatalf("metered = %g, want clamped at cost cap %g", rec.Metered, costCap)
	}
	// The canary kept serving through the throttle.
	cm, _ := p.CM("fn1")
	revs, err := cm.serverlessFW().Revisions("fn-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(revs) != 2 || revs[1].Name != "v2" {
		t.Fatalf("revisions = %+v, want [rev-1 v2]", revs)
	}
	if revs[1].Requests <= 0 {
		t.Fatalf("v2 routed %g requests, want > 0 through the canary split", revs[1].Requests)
	}
	if revs[0].Requests <= revs[1].Requests {
		t.Fatalf("split inverted: rev-1 %g vs v2 %g, want 90/10 shape", revs[0].Requests, revs[1].Requests)
	}
}
