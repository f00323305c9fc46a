// Package chaos builds declarative, seed-deterministic fault campaigns
// against a running platform. A Plan is a schedule of fault events on
// the simulation clock — correlated site outages, uncorrelated crash
// bursts, provider-wide spot revocation storms, and market price
// shocks — and an Injector arms the plan on a platform's engine using
// only the substrates' public fault-injection hooks (vmm.Manager.Crash,
// cloud.Provider.Revoke/ShockPrices/RevokeOutbid). Target selection
// draws from a dedicated named RNG stream, so a chaos campaign perturbs
// no other component's randomness: two runs of the same seed and plan
// are byte-identical, and the always-on core Auditor can verify the
// platform's conservation invariants through every campaign.
package chaos

import (
	"fmt"
	"sort"

	"meryn/internal/core"
	"meryn/internal/sim"
	"meryn/internal/vmm"
)

// Kind is a fault-event category.
type Kind int

// Fault kinds.
const (
	// KindCrashBurst crashes K running VMs picked uniformly at random
	// (uncorrelated failures; exercises FailNode/handleNodeCrash and
	// private replacement provisioning).
	KindCrashBurst Kind = iota
	// KindSiteOutage crashes every running VM hosted on K physical
	// nodes (correlated failure domain, the soCloud-style scenario).
	KindSiteOutage
	// KindRevocationStorm revokes up to K running spot leases per
	// provider, oldest first (provider-wide preemption wave).
	KindRevocationStorm
	// KindPriceShock multiplies every market price by Factor and
	// immediately revokes the leases the new price outbids.
	KindPriceShock
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrashBurst:
		return "crash-burst"
	case KindSiteOutage:
		return "site-outage"
	case KindRevocationStorm:
		return "revocation-storm"
	case KindPriceShock:
		return "price-shock"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Time
	Kind Kind
	// K is the blast radius: VMs for a crash burst, physical nodes for
	// a site outage, leases per provider for a revocation storm
	// (0 means all). Unused for price shocks.
	K int
	// Factor is the price multiplier for KindPriceShock.
	Factor float64
}

// Plan is a complete, deterministic fault schedule. Seed feeds the
// injector's target-selection RNG; the event list is fixed up front so
// a plan can be printed, compared and replayed.
type Plan struct {
	Seed   int64
	Events []Event
}

// CampaignConfig parameterizes Campaign's randomized fault schedule.
// Event times are sampled uniformly over [Start, Start+Span) from a
// named RNG stream derived from Seed, so equal configs build equal
// plans.
type CampaignConfig struct {
	Seed  int64
	Start sim.Time // window start (default 120 s)
	Span  sim.Time // window length (default 2400 s)

	Bursts     int // crash-burst events
	BurstKills int // VMs killed per burst (default 2)

	Outages     int // site-outage events
	OutageNodes int // physical nodes per outage (default 2)

	Storms           int // revocation-storm events
	StormRevocations int // leases revoked per provider per storm (0 = all)

	Shocks      int     // price-shock events
	ShockFactor float64 // price multiplier per shock (default 3)
}

// Campaign builds a seed-deterministic plan from the config: each
// event's time is sampled independently, then the schedule is sorted by
// time (stable, so same-instant events keep generation order:
// bursts, outages, storms, shocks).
func Campaign(cfg CampaignConfig) Plan {
	if cfg.Start <= 0 {
		cfg.Start = sim.Seconds(120)
	}
	if cfg.Span <= 0 {
		cfg.Span = sim.Seconds(2400)
	}
	if cfg.BurstKills <= 0 {
		cfg.BurstKills = 2
	}
	if cfg.OutageNodes <= 0 {
		cfg.OutageNodes = 2
	}
	if cfg.ShockFactor <= 0 {
		cfg.ShockFactor = 3
	}
	rng := sim.NewRNG(cfg.Seed, "chaos/campaign")
	at := func() sim.Time {
		return cfg.Start + sim.Time(rng.Float64()*float64(cfg.Span))
	}
	var events []Event
	for i := 0; i < cfg.Bursts; i++ {
		events = append(events, Event{At: at(), Kind: KindCrashBurst, K: cfg.BurstKills})
	}
	for i := 0; i < cfg.Outages; i++ {
		events = append(events, Event{At: at(), Kind: KindSiteOutage, K: cfg.OutageNodes})
	}
	for i := 0; i < cfg.Storms; i++ {
		events = append(events, Event{At: at(), Kind: KindRevocationStorm, K: cfg.StormRevocations})
	}
	for i := 0; i < cfg.Shocks; i++ {
		events = append(events, Event{At: at(), Kind: KindPriceShock, Factor: cfg.ShockFactor})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return Plan{Seed: cfg.Seed, Events: events}
}

// Light is a mild preset: a couple of uncorrelated crashes, one
// revocation storm and one moderate price shock over a 40-minute window.
func Light(seed int64) Plan {
	return Campaign(CampaignConfig{
		Seed:   seed,
		Bursts: 2, BurstKills: 1,
		Storms: 1, StormRevocations: 2,
		Shocks: 1, ShockFactor: 2,
	})
}

// Heavy is an aggressive preset: repeated crash bursts, two correlated
// site outages, storms that sweep all spot leases and strong shocks.
func Heavy(seed int64) Plan {
	return Campaign(CampaignConfig{
		Seed:   seed,
		Bursts: 4, BurstKills: 3,
		Outages: 2, OutageNodes: 2,
		Storms: 2, StormRevocations: 0,
		Shocks: 2, ShockFactor: 4,
	})
}

// Injector binds a plan to a platform and fires its events on the
// simulation clock. The tally fields record what each fault actually
// hit — a storm with no live spot leases, or a burst on an idle
// platform, counts as skipped rather than silently passing.
type Injector struct {
	p    *core.Platform
	plan Plan
	rng  *sim.RNG

	// Fired-fault tallies.
	Crashes     int // VMs crashed (bursts + outages)
	Outages     int // site-outage events that hit at least one node
	Storms      int // storm events that revoked at least one lease
	Revocations int // spot leases revoked (storms + shock sweeps)
	Shocks      int // price shocks applied
	Skipped     int // events that found no target
}

// New returns an injector for the plan. Arm must be called before the
// simulation runs past the plan's first event time.
func New(p *core.Platform, plan Plan) *Injector {
	return &Injector{p: p, plan: plan, rng: sim.NewRNG(plan.Seed, "chaos/inject")}
}

// Plan returns the armed plan.
func (in *Injector) Plan() Plan { return in.plan }

// Arm schedules every plan event on the platform's engine.
func (in *Injector) Arm() {
	for _, ev := range in.plan.Events {
		ev := ev
		in.p.Eng.At(ev.At, func() { in.fire(ev) })
	}
}

func (in *Injector) fire(ev Event) {
	switch ev.Kind {
	case KindCrashBurst:
		in.crashBurst(ev.K)
	case KindSiteOutage:
		in.siteOutage(ev.K)
	case KindRevocationStorm:
		in.storm(ev.K)
	case KindPriceShock:
		in.shock(ev.Factor)
	}
}

// crashBurst crashes k running VMs chosen uniformly without
// replacement (in start order before sampling, so selection is
// deterministic for a given seed).
func (in *Injector) crashBurst(k int) {
	vms := in.p.VMM.List(vmm.StateRunning)
	if len(vms) == 0 {
		in.Skipped++
		return
	}
	if k > len(vms) {
		k = len(vms)
	}
	for _, i := range in.rng.Perm(len(vms))[:k] {
		if err := in.p.VMM.Crash(vms[i].ID); err == nil {
			in.Crashes++
		}
	}
}

// siteOutage groups running VMs by hosting physical node, picks k
// nodes uniformly, and crashes every VM on them — a correlated failure
// domain, unlike the independent samples of a crash burst.
func (in *Injector) siteOutage(k int) {
	byNode := make(map[string][]string)
	var nodes []string
	for _, vm := range in.p.VMM.List(vmm.StateRunning) {
		n := vm.NodeID()
		if n == "" {
			continue
		}
		if _, ok := byNode[n]; !ok {
			nodes = append(nodes, n)
		}
		byNode[n] = append(byNode[n], vm.ID)
	}
	if len(nodes) == 0 {
		in.Skipped++
		return
	}
	sort.Strings(nodes)
	if k > len(nodes) {
		k = len(nodes)
	}
	hit := false
	for _, i := range in.rng.Perm(len(nodes))[:k] {
		for _, id := range byNode[nodes[i]] {
			if err := in.p.VMM.Crash(id); err == nil {
				in.Crashes++
				hit = true
			}
		}
	}
	if hit {
		in.Outages++
	} else {
		in.Skipped++
	}
}

// storm revokes up to k running spot leases per provider, oldest
// (longest-held) first; k <= 0 sweeps them all.
func (in *Injector) storm(k int) {
	revoked := 0
	for _, prov := range in.p.Clouds {
		ids := prov.RunningSpotIDs()
		if k > 0 && len(ids) > k {
			ids = ids[:k]
		}
		for _, id := range ids {
			if err := prov.Revoke(id); err == nil {
				revoked++
			}
		}
	}
	if revoked > 0 {
		in.Storms++
		in.Revocations += revoked
	} else {
		in.Skipped++
	}
}

// shock multiplies every provider's market prices by factor and
// immediately sweeps the leases the new prices outbid, so the shock's
// revocations land at the shock instant rather than on the next
// market-watch tick.
func (in *Injector) shock(factor float64) {
	for _, prov := range in.p.Clouds {
		prov.ShockPrices(factor)
		in.Revocations += prov.RevokeOutbid()
	}
	in.Shocks++
}
