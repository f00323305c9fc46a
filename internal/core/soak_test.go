package core

import (
	"fmt"
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/sim"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// soakConfig builds the soak platform: two small batch VCs (one
// spot-bidding), a spot-bidding serverless VC, a market-priced cloud,
// and the auditor at a 5 s cadence collecting violations instead of
// panicking so the failing seed can be reported.
func soakConfig(seed int64, violations *[]error) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.VCs = []VCConfig{
		{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 6, Spot: &SpotPolicy{BidMultiplier: 1.25}},
		{Name: "vc2", Type: workload.TypeBatch, InitialVMs: 4},
		{Name: "vc3", Type: workload.TypeServerless, InitialVMs: 6, Spot: &SpotPolicy{BidMultiplier: 1.25}},
	}
	cfg.Clouds[0].Market = &cloud.MarketConfig{
		Volatility: 0.15, Reversion: 0.25, Floor: 0.5, Tick: sim.Seconds(30),
	}
	cfg.Audit = &AuditConfig{
		Every:  sim.Seconds(5),
		OnFail: func(err error) { *violations = append(*violations, err) },
	}
	return cfg
}

// TestSoakRandomOpsUnderAudit is the randomized soak property test: a
// stream of random operations — submissions, VM crashes, spot
// revocations, market price shocks — against a live session while the
// auditor checks the full invariant catalogue every 5 simulated
// seconds. Any violation fails the test with the seed that produced
// it, so a failure here is a one-line reproduction recipe. Each seed's
// post-drain digest is pinned (-short runs a third of the operations,
// so it pins its own), which makes the soak a golden replay as well.
func TestSoakRandomOpsUnderAudit(t *testing.T) {
	pins := map[int64]string{1: "b9a872ddebb2a553", 42: "f705219560fad01f"}
	if testing.Short() {
		pins = map[int64]string{1: "35af181d02e57aee", 42: "daf3e0b3c6c3f773"}
	}
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if got := fmt.Sprintf("%016x", soak(t, seed, false)); got != pins[seed] {
				t.Errorf("seed %d: digest %s, want %s", seed, got, pins[seed])
			}
		})
	}
}

// soak runs the randomized campaign and returns the post-drain session
// digest. With oracled set, it drives the engine event by event and
// compares the auditor against referenceCheck at every barrier.
func soak(t *testing.T, seed int64, oracled bool) uint64 {
	var violations []error
	p := newPlatform(t, soakConfig(seed, &violations))
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	var o *oracle
	if oracled {
		o = newOracle(t, p, &violations)
	}

	ops := 120
	if testing.Short() {
		ops = 40
	}
	rng := sim.NewRNG(seed, "soak")
	mustClean := func(op string) {
		if len(violations) > 0 {
			t.Fatalf("seed %d: invariant violated after op %s at t=%s:\n%v",
				seed, op, p.Eng.Now(), violations[0])
		}
	}
	submitted := 0
	for i := 0; i < ops; i++ {
		op := "noop"
		switch rng.Intn(12) {
		case 0, 1, 2, 3, 4: // submit a batch app to a random VC
			vc := "vc1"
			if rng.Intn(2) == 1 {
				vc = "vc2"
			}
			app := workload.App{
				ID: fmt.Sprintf("soak-%d", submitted), Type: workload.TypeBatch, VC: vc,
				SubmitAt: s.p.Eng.Now(),
				VMs:      1 + rng.Intn(2),
				Work:     300 + rng.Float64()*900,
			}
			submitted++
			if _, err := s.SubmitWith(app, nil); err != nil {
				t.Fatalf("seed %d: submit %s: %v", seed, app.ID, err)
			}
			op = "submit " + app.ID
		case 10, 11: // submit a serverless function with idle gaps
			// Long cold starts and a 50% duty cycle keep functions mid-boot
			// or freshly warm much of the time, so the random crashes and
			// spot revocations below land on instances in every phase of
			// the cold-start lifecycle — including a booting instance and a
			// function's only warm host on a revoked spot lease.
			app := workload.App{
				ID: fmt.Sprintf("soak-%d", submitted), Type: workload.TypeServerless, VC: "vc3",
				SubmitAt:    s.p.Eng.Now(),
				Replicas:    1 + rng.Intn(2),
				SvcRate:     10,
				DurationS:   600 + rng.Float64()*900,
				ColdStartS:  10 + rng.Float64()*30,
				ConcTarget:  1 + rng.Float64(),
				IdleWindowS: 30 + rng.Float64()*30,
				Load: &workload.LoadProfile{
					Base:  4 + rng.Float64()*8,
					OnOff: &workload.OnOff{Period: sim.Seconds(120), Active: sim.Seconds(60)},
				},
			}
			submitted++
			if _, err := s.SubmitWith(app, nil); err != nil {
				t.Fatalf("seed %d: submit %s: %v", seed, app.ID, err)
			}
			op = "submit fn " + app.ID
		case 5, 6: // crash a random running VM
			if vms := p.VMM.List(vmm.StateRunning); len(vms) > 0 {
				id := vms[rng.Intn(len(vms))].ID
				if err := p.VMM.Crash(id); err != nil {
					t.Fatalf("seed %d: crash %s: %v", seed, id, err)
				}
				op = "crash " + id
			}
		case 7: // revoke a random running spot lease
			if ids := p.Clouds[0].RunningSpotIDs(); len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				if err := p.Clouds[0].Revoke(id); err != nil {
					t.Fatalf("seed %d: revoke %s: %v", seed, id, err)
				}
				op = "revoke " + id
			}
		case 8, 9: // shock market prices and sweep outbid leases
			factor := 0.5 + rng.Float64()*3
			p.Clouds[0].ShockPrices(factor)
			p.Clouds[0].RevokeOutbid()
			op = fmt.Sprintf("shock x%.2f", factor)
		}
		o.stepTo(s, s.Now()+sim.Seconds(30+rng.Float64()*60))
		mustClean(op)
	}

	if err := p.AuditNow(); err != nil {
		t.Fatalf("seed %d: final audit before drain: %v", seed, err)
	}
	o.observe()
	res, err := o.drain(s)
	if err != nil {
		t.Fatalf("seed %d: drain: %v", seed, err)
	}
	mustClean("drain")
	if res.AuditChecks == 0 {
		t.Fatalf("seed %d: auditor never ran", seed)
	}
	if got := len(res.Ledger.All()); got != submitted {
		t.Fatalf("seed %d: ledger has %d records, submitted %d", seed, got, submitted)
	}
	if got := len(res.Ledger.ByType(string(workload.TypeServerless))); got == 0 {
		t.Fatalf("seed %d: no serverless functions exercised in the soak", seed)
	}
	return s.Digest()
}
