package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"meryn/internal/cloud"
	"meryn/internal/framework"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/vmm"
)

// AuditConfig configures the always-on platform invariant auditor. The
// zero value (and a nil Config.Audit) means "enabled with defaults":
// every platform audits itself at a fixed simulated-time cadence unless
// explicitly opted out, so any lifecycle regression that breaks a
// conservation invariant fails loudly in every test and experiment that
// runs a platform, not just in the test that happens to assert it.
type AuditConfig struct {
	// Every is the audit period on the simulation clock (default 30 s).
	// Audits run as ordinary engine events, so they observe the state
	// between events — the barrier at which every invariant must hold.
	Every sim.Time

	// OnFail receives each invariant violation. The default panics: a
	// violated conservation invariant means the simulation state is no
	// longer meaningful, and continuing would only bury the cause.
	OnFail func(error)

	// Disabled switches the auditor off (overhead baselines; the
	// auditor is otherwise always on).
	Disabled bool
}

const defaultAuditEveryS = 30

// Auditor checks platform-wide conservation invariants at audit
// barriers. It is deliberately read-only and draws no randomness, so an
// enabled auditor changes no simulation outcome: RNG streams are named
// per component, audit events reorder nothing, and every output used
// for golden or worker-invariance comparisons is byte-identical with
// the auditor on or off.
//
// The invariant catalogue (see DESIGN.md "Invariant catalogue"):
//
//   - Node conservation, per VC: the framework's node count, the CM's
//     lease table, and OwnedPrivate agree; free/idle-disabled index
//     recounts (via framework.Inspector) match the maintained indexes.
//   - Lease-table/ResourceManager agreement: every attached private
//     node is a running VM; every attached cloud node has a running
//     lease at its provider, billed at the price locked at launch.
//   - Money conservation: the PrivateUsed/CloudUsed gauges equal the
//     sum over open accounting segments; provider spend aggregates and
//     per-app ledger costs are non-negative and non-decreasing.
//   - Gauge/counter sanity: usage gauges are non-negative and agree
//     with the last point of their Series; counters never decrease.
//   - Substrate self-audits: the VM manager's and every provider's
//     internal recounts (vmm.Manager.Audit, cloud.Provider.Audit).
//
// Deliberately NOT checked, because they do not hold between events:
// per-VC avail can be legitimately negative after crashes with
// commitments outstanding; CloudUsed can transiently exceed the
// providers' active totals while a revoked node sits in a still-open
// segment; and providers can hold running leases after drain when a
// late replacement lease sits attached but idle.
type Auditor struct {
	p      *Platform
	every  sim.Time
	onFail func(error)
	armed  bool

	// Checks counts completed audits; Violations counts invariant
	// failures reported through OnFail.
	Checks     int64
	Violations int64

	// Monotonicity snapshots from the previous audit.
	lastCounters []int64
	lastSpend    []float64 // per provider: TotalSpend, SpotSpend
	lastCost     map[string]float64
}

// newAuditor returns an armed-on-demand auditor, or nil when disabled.
func newAuditor(p *Platform, cfg *AuditConfig) *Auditor {
	if cfg == nil || cfg.Disabled {
		return nil
	}
	every := cfg.Every
	if every <= 0 {
		every = sim.Seconds(defaultAuditEveryS)
	}
	onFail := cfg.OnFail
	if onFail == nil {
		onFail = func(err error) { panic(err) }
	}
	return &Auditor{p: p, every: every, onFail: onFail, lastCost: make(map[string]float64)}
}

// arm schedules the next audit barrier. The timer is armed when work
// enters the platform and re-arms itself only while unsettled
// applications remain AND other events are queued: the auditor must
// never keep the simulation alive on its own, or event-exhaustion
// drivers (RunAll, the session settle loop waiting on an interactive
// negotiation) would spin on audit events forever.
func (a *Auditor) arm() {
	if a == nil || a.armed {
		return
	}
	a.armed = true
	a.p.Eng.Schedule(a.every, a.tick)
}

func (a *Auditor) tick() {
	a.armed = false
	a.run()
	if a.p.remaining > 0 && a.p.Eng.Pending() > 0 {
		a.arm()
	}
}

// run performs one audit, reporting every violation through OnFail.
func (a *Auditor) run() []error {
	if a == nil {
		return nil
	}
	errs := a.check()
	a.Checks++
	for _, err := range errs {
		a.Violations++
		a.onFail(err)
	}
	return errs
}

// AuditNow audits the platform immediately and returns all violations
// joined (nil when every invariant holds). Violations are also reported
// through the configured OnFail. With the auditor disabled it reports
// nothing and returns nil.
func (p *Platform) AuditNow() error {
	if p.Audit == nil {
		return nil
	}
	return errors.Join(p.Audit.run()...)
}

// check evaluates the whole invariant catalogue and returns the
// violations found.
func (a *Auditor) check() []error {
	var errs []error
	p := a.p
	now := p.Eng.Now()
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("audit[t=%s]: "+format, append([]any{now}, args...)...))
	}

	sumSegPrivate, sumSegCloud, totalOwned := 0, 0, 0
	for _, name := range p.cmOrder {
		cm := p.cms[name]
		a.checkCM(cm, fail)
		totalOwned += cm.OwnedPrivate
		for _, id := range sortedAppIDs(cm) {
			st := cm.apps[id]
			if !st.segOpen {
				continue
			}
			if st.segRate < 0 {
				fail("%s/%s: open segment with negative rate %g", name, id, st.segRate)
			}
			if st.segStart > now {
				fail("%s/%s: open segment starts in the future (%s)", name, id, st.segStart)
			}
			if st.segPrivateN < 0 || st.segCloudN < 0 {
				fail("%s/%s: open segment with negative node counts (%d private, %d cloud)",
					name, id, st.segPrivateN, st.segCloudN)
			}
			sumSegPrivate += st.segPrivateN
			sumSegCloud += st.segCloudN
		}
	}

	// Money/usage conservation: the platform gauges are exactly the sum
	// of the open accounting segments (segment and gauge moves are
	// atomic in openSegment/closeSegment).
	if v := p.PrivateUsed.Value(); v != sumSegPrivate {
		fail("PrivateUsed gauge %d != %d private nodes across open segments", v, sumSegPrivate)
	}
	if v := p.CloudUsed.Value(); v != sumSegCloud {
		fail("CloudUsed gauge %d != %d cloud nodes across open segments", v, sumSegCloud)
	}

	// Substrate self-audits.
	if err := p.VMM.Audit(); err != nil {
		errs = append(errs, err)
	}
	vmCounts := p.VMM.StateCounts()
	if run := vmCounts[vmm.StateRunning]; totalOwned > run {
		fail("%d private nodes attached across VCs but only %d VMs running", totalOwned, run)
	}
	for _, prov := range p.Clouds {
		if err := prov.Audit(); err != nil {
			errs = append(errs, err)
		}
	}

	// Gauge sanity: non-negative, and the last series point carries the
	// current value.
	a.checkGauge(p.PrivateUsed, fail)
	a.checkGauge(p.CloudUsed, fail)
	a.checkGauge(p.VMM.UsedGauge, fail)
	for _, prov := range p.Clouds {
		a.checkGauge(prov.UsedGauge, fail)
	}

	// Counter and spend monotonicity against the previous audit.
	cur := a.counterSnapshot()
	if a.lastCounters != nil && len(a.lastCounters) == len(cur) {
		for i, v := range cur {
			if v < a.lastCounters[i] {
				fail("counter #%d decreased (%d -> %d)", i, a.lastCounters[i], v)
			}
		}
	}
	for _, v := range cur {
		if v < 0 {
			fail("negative counter value %d", v)
		}
	}
	a.lastCounters = cur

	spend := make([]float64, 0, 2*len(p.Clouds))
	for _, prov := range p.Clouds {
		spend = append(spend, prov.TotalSpend, prov.SpotSpend)
	}
	if a.lastSpend != nil && len(a.lastSpend) == len(spend) {
		for i, v := range spend {
			if v < a.lastSpend[i]-1e-9 {
				fail("provider spend #%d decreased (%g -> %g)", i, a.lastSpend[i], v)
			}
		}
	}
	a.lastSpend = spend

	// Ledger sanity: prices, penalties and costs are non-negative,
	// completed records are time-ordered, and per-app cost never
	// shrinks between audits.
	for _, rec := range p.Ledger.All() {
		if rec.Cost < 0 || rec.Penalty < 0 || rec.Price < 0 {
			fail("app %s: negative money (price=%g penalty=%g cost=%g)", rec.ID, rec.Price, rec.Penalty, rec.Cost)
		}
		if rec.EndTime > 0 && rec.StartTime > 0 && rec.EndTime < rec.StartTime {
			fail("app %s: ends before it starts (%s < %s)", rec.ID, rec.EndTime, rec.StartTime)
		}
		if prev, ok := a.lastCost[rec.ID]; ok && rec.Cost < prev-1e-9 {
			fail("app %s: cost decreased (%g -> %g)", rec.ID, prev, rec.Cost)
		}
		a.lastCost[rec.ID] = rec.Cost
	}

	if p.remaining < 0 {
		fail("negative remaining-application count %d", p.remaining)
	}
	return errs
}

// checkCM audits one VC: node conservation between the framework, the
// CM lease table and OwnedPrivate; index recounts via
// framework.Inspector; and lease-table/ResourceManager agreement for
// every attached node.
func (a *Auditor) checkCM(cm *ClusterManager, fail func(string, ...any)) {
	name := cm.name
	attached, cloudAttached := len(cm.nodes), 0
	ids := make([]string, 0, attached)
	for id, info := range cm.nodes {
		ids = append(ids, id)
		if info.cloud {
			cloudAttached++
		}
	}
	sort.Strings(ids)

	if n := cm.fw.NumNodes(); n != attached {
		fail("%s: framework holds %d nodes but CM lease table has %d", name, n, attached)
	}
	if own := attached - cloudAttached; cm.OwnedPrivate != own {
		fail("%s: OwnedPrivate=%d but %d private nodes attached", name, cm.OwnedPrivate, own)
	}

	if insp, ok := cm.fw.(framework.Inspector); ok {
		var freeKind [2]int
		idleDisabled := 0
		for _, id := range ids {
			st, ok := insp.InspectNode(id)
			if !ok {
				fail("%s: node %s in CM lease table but unknown to framework", name, id)
				continue
			}
			if st.Cloud != cm.nodes[id].cloud {
				fail("%s: node %s kind mismatch (framework cloud=%v, CM cloud=%v)", name, id, st.Cloud, cm.nodes[id].cloud)
			}
			if st.Busy {
				continue
			}
			if st.Disabled {
				idleDisabled++
			} else if st.Cloud {
				freeKind[1]++
			} else {
				freeKind[0]++
			}
		}
		for k, cloudKind := range []bool{false, true} {
			if got := cm.fw.FreeNodeCount(cloudKind); got != freeKind[k] {
				fail("%s: FreeNodeCount(cloud=%v)=%d but recount is %d", name, cloudKind, got, freeKind[k])
			}
		}
		if got := len(cm.fw.IdleDisabledNodeIDs()); got != idleDisabled {
			fail("%s: %d idle-disabled nodes indexed but recount is %d", name, got, idleDisabled)
		}
		for _, id := range cm.fw.FreeNodeIDs() {
			if _, ok := cm.nodes[id]; !ok {
				fail("%s: free node %s not in CM lease table", name, id)
			}
		}
	}

	for _, id := range ids {
		info := cm.nodes[id]
		if !info.cloud {
			vm, err := cm.p.VMM.Get(id)
			if err != nil {
				fail("%s: attached private node %s unknown to VMM", name, id)
				continue
			}
			if vm.State != vmm.StateRunning {
				fail("%s: attached private node %s is %v", name, id, vm.State)
			}
			continue
		}
		if info.provider == nil {
			fail("%s: attached cloud node %s has no provider", name, id)
			continue
		}
		inst, ok := info.provider.Lease(info.instID)
		if !ok {
			fail("%s: attached cloud node %s has no tracked lease %s at %s", name, id, info.instID, info.provider.Name())
			continue
		}
		if inst.State != cloud.InstanceRunning {
			fail("%s: attached cloud node %s lease is %v", name, id, inst.State)
		}
		if inst.PriceAtLaunch != info.rate {
			fail("%s: cloud node %s billed at %g but lease price locked at %g", name, id, info.rate, inst.PriceAtLaunch)
		}
	}
}

// checkGauge verifies non-negativity and that the gauge's series ends
// at its current value.
func (a *Auditor) checkGauge(g *metrics.Gauge, fail func(string, ...any)) {
	v := g.Value()
	if v < 0 {
		fail("gauge %s negative (%d)", g.Series().Name, v)
	}
	pts := g.Series().Points()
	if n := len(pts); n > 0 && pts[n-1].Value != float64(v) {
		fail("gauge %s value %d disagrees with last series point %g", g.Series().Name, v, pts[n-1].Value)
	}
}

// counterSnapshot flattens every platform, VMM and provider counter
// into one slice for the monotonicity check. Platform counters are
// enumerated by reflection so counters added later are covered
// automatically.
func (a *Auditor) counterSnapshot() []int64 {
	var vals []int64
	rv := reflect.ValueOf(&a.p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			vals = append(vals, c.Count)
		}
	}
	vals = append(vals, a.p.VMM.Starts.Count, a.p.VMM.Stops.Count, a.p.VMM.Crashes.Count)
	for _, prov := range a.p.Clouds {
		vals = append(vals, prov.Launches.Count, prov.Failures.Count, prov.Revocations.Count)
	}
	return vals
}

// sortedAppIDs returns a CM's application IDs in stable order (audit
// failure messages must be deterministic across runs).
func sortedAppIDs(cm *ClusterManager) []string {
	ids := make([]string, 0, len(cm.apps))
	for id := range cm.apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
