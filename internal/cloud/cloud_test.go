package cloud

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/vmm"
)

// paperType mirrors the paper's cloud VM: EC2-medium shape, cost 4
// units per VM-second, slightly faster CPU than the private site.
func paperType() InstanceType {
	return InstanceType{
		Name:        "medium",
		Shape:       vmm.DefaultShape,
		SpeedFactor: 1.0,
		Price:       4,
	}
}

func newProvider(t *testing.T, eng *sim.Engine, cfg Config) *Provider {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "ec2"
	}
	if cfg.Types == nil {
		cfg.Types = []InstanceType{paperType()}
	}
	p, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterImage("batch")
	return p
}

func mustLaunch(t *testing.T, eng *sim.Engine, p *Provider) *Instance {
	t.Helper()
	var got *Instance
	p.Launch("medium", "batch", func(inst *Instance, err error) {
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		got = inst
	})
	eng.RunAll()
	if got == nil {
		t.Fatal("Launch completion never fired")
	}
	return got
}

func TestLaunchRuns(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{ProvisionLatency: stats.Constant{V: 45}})
	inst := mustLaunch(t, eng, p)
	if inst.State != InstanceRunning {
		t.Fatalf("state = %v", inst.State)
	}
	if inst.LaunchedAt != sim.Seconds(45) {
		t.Fatalf("LaunchedAt = %v", inst.LaunchedAt)
	}
	if inst.PriceAtLaunch != 4 {
		t.Fatalf("PriceAtLaunch = %v", inst.PriceAtLaunch)
	}
	if p.Active() != 1 {
		t.Fatalf("Active = %d", p.Active())
	}
}

func TestLaunchValidation(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	var err1, err2 error
	p.Launch("xl", "batch", func(_ *Instance, err error) { err1 = err })
	p.Launch("medium", "noimage", func(_ *Instance, err error) { err2 = err })
	if !errors.Is(err1, ErrUnknownType) {
		t.Fatalf("err1 = %v", err1)
	}
	if !errors.Is(err2, ErrNoImage) {
		t.Fatalf("err2 = %v", err2)
	}
}

func TestQuota(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{Quota: 1})
	mustLaunch(t, eng, p)
	var gotErr error
	p.Launch("medium", "batch", func(_ *Instance, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrQuota) {
		t.Fatalf("err = %v, want ErrQuota", gotErr)
	}
}

func TestUnlimitedQuotaByDefault(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	launched := 0
	for i := 0; i < 100; i++ {
		p.Launch("medium", "batch", func(_ *Instance, err error) {
			if err == nil {
				launched++
			}
		})
	}
	eng.RunAll()
	if launched != 100 {
		t.Fatalf("launched = %d, want 100 (infinite capacity assumption)", launched)
	}
}

func TestTerminateBillsPerSecond(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	inst := mustLaunch(t, eng, p)
	var charge float64
	eng.Schedule(sim.Seconds(1670), func() {
		p.Terminate(inst.ID, func(c float64, err error) {
			if err != nil {
				t.Fatalf("Terminate: %v", err)
			}
			charge = c
		})
	})
	eng.RunAll()
	want := 1670.0 * 4
	if charge != want {
		t.Fatalf("charge = %v, want %v", charge, want)
	}
	if p.TotalSpend != want {
		t.Fatalf("TotalSpend = %v", p.TotalSpend)
	}
	if inst.State != InstanceTerminated {
		t.Fatalf("state = %v", inst.State)
	}
	if p.Active() != 0 {
		t.Fatalf("Active = %d", p.Active())
	}
}

func TestTerminateBillsPerHourRoundUp(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{Billing: BillPerHour})
	inst := mustLaunch(t, eng, p)
	var charge float64
	eng.Schedule(sim.Seconds(3601), func() { // 1h1s -> 2 hours
		p.Terminate(inst.ID, func(c float64, err error) { charge = c })
	})
	eng.RunAll()
	want := 2 * 3600 * 4.0
	if charge != want {
		t.Fatalf("charge = %v, want %v", charge, want)
	}
}

func TestTerminateErrors(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{ProvisionLatency: stats.Constant{V: 30}})
	var err1 error
	p.Terminate("ghost", func(_ float64, err error) { err1 = err })
	if !errors.Is(err1, ErrNotFound) {
		t.Fatalf("err = %v", err1)
	}
	// A pending instance cannot be terminated.
	p.Launch("medium", "batch", func(*Instance, error) {})
	var errPending error
	p.Terminate("ec2-i0000", func(_ float64, err error) { errPending = err })
	if !errors.Is(errPending, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState for a pending instance", errPending)
	}
	eng.RunAll()
	p.Terminate("ec2-i0000", func(_ float64, err error) {})
	eng.RunAll()
	// Settled leases are pruned from the lease table, so a double
	// terminate reports ErrNotFound rather than leaking state forever.
	var err2 error
	p.Terminate("ec2-i0000", func(_ float64, err error) { err2 = err })
	if !errors.Is(err2, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound after pruning", err2)
	}
}

func TestQuoteFixed(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	price, err := p.Quote("medium")
	if err != nil || price != 4 {
		t.Fatalf("Quote = %v, %v", price, err)
	}
	if _, err := p.Quote("nope"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v", err)
	}
}

func TestMarketPricingMovesAndStaysAboveFloor(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{
		Market: &MarketConfig{Volatility: 0.1, Reversion: 0.2, Floor: 0.5, Tick: sim.Seconds(60)},
	})
	var quotes []float64
	for i := 1; i <= 50; i++ {
		at := sim.Seconds(float64(i) * 60)
		eng.At(at, func() {
			q, err := p.Quote("medium")
			if err != nil {
				t.Fatalf("Quote: %v", err)
			}
			quotes = append(quotes, q)
		})
	}
	eng.Run(sim.Seconds(3100))
	moved := false
	for _, q := range quotes {
		if q < 2.0 { // floor = 0.5 * 4
			t.Fatalf("market quote %v below floor", q)
		}
		if math.Abs(q-4) > 1e-9 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("market price never moved")
	}
}

func TestFailureInjection(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{FailureProb: 1.0})
	var gotErr error
	p.Launch("medium", "batch", func(_ *Instance, err error) { gotErr = err })
	eng.RunAll()
	if !errors.Is(gotErr, ErrLaunchFailed) {
		t.Fatalf("err = %v, want ErrLaunchFailed", gotErr)
	}
	if p.Active() != 0 {
		t.Fatalf("failed launch leaked capacity: Active = %d", p.Active())
	}
	if p.Failures.Count != 1 {
		t.Fatalf("Failures = %d", p.Failures.Count)
	}
}

func TestCostIfRunFor(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	c, err := p.CostIfRunFor("medium", sim.Seconds(1670))
	if err != nil || c != 1670*4 {
		t.Fatalf("CostIfRunFor = %v, %v", c, err)
	}
	if _, err := p.CostIfRunFor("nope", sim.Seconds(10)); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestCostIfRunForPerHour(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{Billing: BillPerHour})
	c, err := p.CostIfRunFor("medium", sim.Seconds(10))
	if err != nil || c != 3600*4 {
		t.Fatalf("CostIfRunFor = %v, %v (want one full hour)", c, err)
	}
}

func TestUsedGauge(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{ProvisionLatency: stats.Constant{V: 10}})
	inst := mustLaunch(t, eng, p)
	if p.UsedGauge.Series().At(0) != 1 {
		t.Fatal("pending instance must count as used")
	}
	eng.Schedule(sim.Seconds(100), func() {
		p.Terminate(inst.ID, func(float64, error) {})
	})
	eng.RunAll()
	if p.UsedGauge.Value() != 0 {
		t.Fatalf("gauge = %d after terminate", p.UsedGauge.Value())
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Types: []InstanceType{paperType()}}); err == nil {
		t.Fatal("missing name must fail")
	}
	if _, err := New(eng, Config{Name: "x"}); err == nil {
		t.Fatal("missing types must fail")
	}
	bad := paperType()
	bad.Price = -1
	if _, err := New(eng, Config{Name: "x", Types: []InstanceType{bad}}); err == nil {
		t.Fatal("negative price must fail")
	}
}

func TestBillingString(t *testing.T) {
	if BillPerSecond.String() != "per-second" || BillPerHour.String() != "per-hour" {
		t.Fatal("Billing.String mismatch")
	}
}

// Property: per-hour billing never undercuts per-second billing for the
// same duration and price.
func TestPropertyPerHourAtLeastPerSecond(t *testing.T) {
	f := func(durSec uint32) bool {
		eng := sim.NewEngine()
		ps := newProviderQuick(eng, BillPerSecond)
		ph := newProviderQuick(eng, BillPerHour)
		d := sim.Seconds(float64(durSec % 100000))
		a, err1 := ps.CostIfRunFor("medium", d)
		b, err2 := ph.CostIfRunFor("medium", d)
		return err1 == nil && err2 == nil && b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func newProviderQuick(eng *sim.Engine, b Billing) *Provider {
	p, err := New(eng, Config{Name: "q", Types: []InstanceType{paperType()}, Billing: b})
	if err != nil {
		panic(err)
	}
	p.RegisterImage("batch")
	return p
}

// Property: charges are nonnegative and proportional to duration under
// per-second billing.
func TestPropertyChargeLinearPerSecond(t *testing.T) {
	f := func(d1, d2 uint16) bool {
		eng := sim.NewEngine()
		p := newProviderQuick(eng, BillPerSecond)
		a, _ := p.CostIfRunFor("medium", sim.Seconds(float64(d1)))
		b, _ := p.CostIfRunFor("medium", sim.Seconds(float64(d2)))
		sum, _ := p.CostIfRunFor("medium", sim.Seconds(float64(d1)+float64(d2)))
		return a >= 0 && b >= 0 && math.Abs((a+b)-sum) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- spot leases, revocation and billing lifecycle -------------------------

func TestSpotBidBelowQuoteFailsSynchronously(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	var gotErr error
	p.LaunchSpot("medium", "batch", 3.9, func(_ *Instance, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrOutbid) {
		t.Fatalf("err = %v, want ErrOutbid", gotErr)
	}
	if p.Active() != 0 || p.LeaseCount() != 0 {
		t.Fatalf("rejected bid leaked capacity: active=%d leases=%d", p.Active(), p.LeaseCount())
	}
}

func TestSpotLeaseFixedPricingTerminatesNormally(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	var inst *Instance
	p.LaunchSpot("medium", "batch", 6, func(i *Instance, err error) {
		if err != nil {
			t.Fatalf("LaunchSpot: %v", err)
		}
		inst = i
	})
	eng.RunAll()
	if inst == nil || !inst.Spot || inst.Bid != 6 {
		t.Fatalf("inst = %+v", inst)
	}
	eng.Schedule(sim.Seconds(500), func() {
		p.Terminate(inst.ID, func(float64, error) {})
	})
	eng.RunAll()
	if inst.Revoked {
		t.Fatal("fixed pricing must never revoke (bid >= price forever)")
	}
	want := 500.0 * 4
	if inst.Charge != want || p.SpotSpend != want || p.TotalSpend != want {
		t.Fatalf("charge=%v spot=%v total=%v, want %v", inst.Charge, p.SpotSpend, p.TotalSpend, want)
	}
	if p.Revocations.Count != 0 || p.LeaseCount() != 0 {
		t.Fatalf("revocations=%d leases=%d", p.Revocations.Count, p.LeaseCount())
	}
}

func TestSpotRevocationSettlesPartialCharge(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{
		Seed:   3,
		Market: &MarketConfig{Volatility: 0.3, Reversion: 0.2, Floor: 0.5, Tick: sim.Seconds(30)},
	})
	var revoked *Instance
	p.SetOnRevoke(func(inst *Instance) { revoked = inst })
	var inst *Instance
	// Bid exactly the current quote: the first uptick revokes.
	p.LaunchSpot("medium", "batch", 4.0, func(i *Instance, err error) {
		if err != nil {
			t.Fatalf("LaunchSpot: %v", err)
		}
		inst = i
	})
	eng.Run(sim.Seconds(3600))
	if revoked == nil {
		t.Fatal("no revocation over 120 market ticks at bid == base price")
	}
	if revoked != inst || !inst.Revoked || inst.State != InstanceTerminated {
		t.Fatalf("revoked instance state: %+v", inst)
	}
	wantCharge := sim.ToSeconds(inst.TerminatedAt-inst.LaunchedAt) * inst.PriceAtLaunch
	if inst.Charge != wantCharge {
		t.Fatalf("charge = %v, want partial %v at PriceAtLaunch", inst.Charge, wantCharge)
	}
	if p.TotalSpend != wantCharge || p.SpotSpend != wantCharge {
		t.Fatalf("spend = %v/%v, want %v", p.TotalSpend, p.SpotSpend, wantCharge)
	}
	if p.Revocations.Count != 1 {
		t.Fatalf("revocations = %d", p.Revocations.Count)
	}
	if p.Active() != 0 || p.LeaseCount() != 0 || p.UsedGauge.Value() != 0 {
		t.Fatalf("capacity leaked: active=%d leases=%d gauge=%d",
			p.Active(), p.LeaseCount(), p.UsedGauge.Value())
	}
}

func TestRevokeDuringTerminateLatencySettlesOnce(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{TerminateLatency: stats.Constant{V: 100}})
	var inst *Instance
	p.LaunchSpot("medium", "batch", 6, func(i *Instance, _ error) { inst = i })
	eng.RunAll()
	var termCharge float64
	eng.Schedule(sim.Seconds(500), func() {
		p.Terminate(inst.ID, func(c float64, err error) {
			if err != nil {
				t.Fatalf("Terminate: %v", err)
			}
			termCharge = c
		})
	})
	// The revocation lands while the terminate request is in flight.
	eng.Schedule(sim.Seconds(550), func() {
		if err := p.Revoke(inst.ID); err != nil {
			t.Fatalf("Revoke: %v", err)
		}
	})
	eng.RunAll()
	want := 550.0 * 4 // settled at the revocation instant, once
	if inst.Charge != want || termCharge != want {
		t.Fatalf("charge = %v / %v, want %v", inst.Charge, termCharge, want)
	}
	if p.TotalSpend != want {
		t.Fatalf("TotalSpend = %v, want single settlement %v", p.TotalSpend, want)
	}
	if p.Active() != 0 {
		t.Fatalf("Active = %d after double settle path", p.Active())
	}
}

// TestPriceLockedAtLaunchCompletion is the market-pricing billing
// regression test: the price used for the lease's cost rate and billing
// is the quote at the moment the instance becomes running, not the
// stale quote from request time (the market moves during the
// provisioning latency).
func TestPriceLockedAtLaunchCompletion(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{
		Seed:             7,
		ProvisionLatency: stats.Constant{V: 120},
		Market:           &MarketConfig{Volatility: 0.3, Reversion: 0.2, Floor: 0.5, Tick: sim.Seconds(30)},
	})
	atRequest, err := p.Quote("medium")
	if err != nil {
		t.Fatal(err)
	}
	var inst *Instance
	var atLaunch float64
	p.Launch("medium", "batch", func(i *Instance, err error) {
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		inst = i
		atLaunch, _ = p.Quote("medium")
	})
	eng.Run(sim.Seconds(121))
	if inst == nil {
		t.Fatal("launch never completed")
	}
	if inst.PriceAtLaunch != atLaunch {
		t.Fatalf("PriceAtLaunch = %v, want the launch-time quote %v", inst.PriceAtLaunch, atLaunch)
	}
	if inst.PriceAtLaunch == atRequest {
		t.Fatalf("price did not move over 4 market ticks (seed artifact?): %v", atRequest)
	}
	var charge float64
	eng.Schedule(sim.Seconds(300)-eng.Now(), func() {
		p.Terminate(inst.ID, func(c float64, _ error) { charge = c })
	})
	eng.RunAll()
	want := 180.0 * inst.PriceAtLaunch
	if diff := charge - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("charge = %v, want %v (180 s at the launch-locked price)", charge, want)
	}
}

// TestPerHourFloatEdgeDoesNotOvercharge: a duration one nanosecond above
// an exact hour multiple must not buy a whole extra hour.
func TestPerHourFloatEdgeDoesNotOvercharge(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{Billing: BillPerHour})
	inst := mustLaunch(t, eng, p)
	var charge float64
	eng.At(sim.Time(7200*1e9+1), func() {
		p.Terminate(inst.ID, func(c float64, _ error) { charge = c })
	})
	eng.RunAll()
	if want := 2 * 3600 * 4.0; charge != want {
		t.Fatalf("charge = %v, want %v (2 whole hours, not 3)", charge, want)
	}
	// The shared helper governs estimates too.
	c, err := p.CostIfRunFor("medium", sim.Time(3600*1e9+1))
	if err != nil || c != 3600*4.0 {
		t.Fatalf("CostIfRunFor = %v, %v, want one hour", c, err)
	}
	// A genuinely started hour still bills in full.
	c, _ = p.CostIfRunFor("medium", sim.Seconds(3601))
	if c != 2*3600*4.0 {
		t.Fatalf("CostIfRunFor(3601s) = %v, want two hours", c)
	}
}

func TestSettledLeasesArePruned(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	var ids []string
	for i := 0; i < 5; i++ {
		p.Launch("medium", "batch", func(inst *Instance, err error) {
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, inst.ID)
		})
	}
	eng.RunAll()
	if p.LeaseCount() != 5 {
		t.Fatalf("leases = %d", p.LeaseCount())
	}
	eng.Schedule(sim.Seconds(100), func() {
		for _, id := range ids {
			p.Terminate(id, func(float64, error) {})
		}
	})
	eng.RunAll()
	if p.LeaseCount() != 0 {
		t.Fatalf("settled leases not pruned: %d left", p.LeaseCount())
	}
	if want := 5 * 100.0 * 4; p.TotalSpend != want {
		t.Fatalf("TotalSpend = %v, want aggregate %v preserved across pruning", p.TotalSpend, want)
	}
	// Failed launches are pruned too.
	pf := newProvider(t, eng, Config{Name: "flaky", FailureProb: 1.0})
	pf.Launch("medium", "batch", func(*Instance, error) {})
	eng.RunAll()
	if pf.LeaseCount() != 0 {
		t.Fatalf("failed launch not pruned: %d", pf.LeaseCount())
	}
}

// TestAuditNamesSmallestViolatingLease: with two bad leases in the
// table, Audit reports the one with the smaller ID, whatever order the
// table is walked in.
func TestAuditNamesSmallestViolatingLease(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	var ids []string
	for i := 0; i < 12; i++ {
		p.Launch("medium", "batch", func(inst *Instance, err error) {
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, inst.ID)
		})
	}
	eng.RunAll()
	if err := p.Audit(); err != nil {
		t.Fatalf("clean provider fails its audit: %v", err)
	}
	small, large := ids[4], ids[9]
	if small >= large {
		t.Fatalf("lease IDs %s, %s not in launch order", small, large)
	}
	p.leases[large].State = InstanceTerminated
	p.leases[small].Charge = 1
	want := "cloud ec2: unsettled lease " + small + " carries charge 1"
	for i := 0; i < 20; i++ {
		if err := p.Audit(); err == nil || err.Error() != want {
			t.Fatalf("Audit = %v, want %q", err, want)
		}
	}
}

// TestAuditChecksLiveSlice: the audit walks the live slice, so it
// checks that every lease sits at the slot it records, across the swap
// a prune makes, and that the slice and the lease table hold as many
// leases.
func TestAuditChecksLiveSlice(t *testing.T) {
	eng := sim.NewEngine()
	p := newProvider(t, eng, Config{})
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, mustLaunch(t, eng, p).ID)
	}
	p.Terminate(ids[1], func(float64, error) {})
	eng.RunAll()
	if err := p.Audit(); err != nil {
		t.Fatalf("clean provider fails its audit: %v", err)
	}
	if len(p.live) != 3 || p.live[0].ID != ids[0] || p.live[1].ID != ids[3] || p.live[2].ID != ids[2] {
		t.Fatalf("pruning %s did not move the last lease into its slot", ids[1])
	}

	p.live[1].slot = 2
	want := "cloud ec2: lease " + ids[3] + " sits at slot 1 but records slot 2"
	if err := p.Audit(); err == nil || err.Error() != want {
		t.Fatalf("Audit = %v, want %q", err, want)
	}
	p.live[1].slot = 1

	p.live = p.live[:2]
	want = "cloud ec2: 2 leases in the live slice but 3 in the lease table"
	if err := p.Audit(); err == nil || err.Error() != want {
		t.Fatalf("Audit = %v, want %q", err, want)
	}
}
