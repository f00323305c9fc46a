package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"meryn/internal/cloud"
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
// Every barrier re-verifies the state that can still change, and an
// audit allocates nothing while it holds. Applications are walked
// through each VC's live set (accepted and unsettled), so an audit's
// cost follows live state, not history. A ledger record is checked
// once more as its application settles; nothing writes it after that,
// and a job event for a settled application panics at the write.
// Nodes are walked through each VC's attached slice, VMs through the VM
// manager's start-order slice and leases through each provider's lease
// slice, so a barrier iterates no map; a node's framework status is read
// through the record AddNode returned, not looked up by ID.
//
// The invariant catalogue (see DESIGN.md "Invariant catalogue"):
//
//   - Node conservation, per VC: the framework's node count, the CM's
//     lease table, and OwnedPrivate agree; free/idle-disabled index
//     recounts (each node's status read through the record the
//     framework's AddNode returned) match the maintained indexes.
//   - Lease-table/ResourceManager agreement: every attached private
//     node is a running VM; every attached cloud node has a running
//     lease at its provider, billed at the price locked at launch.
//   - Money conservation: the PrivateUsed/CloudUsed gauges equal the
//     sum over open accounting segments; provider spend aggregates and
//     per-app ledger costs are non-negative and non-decreasing.
//   - Gauge/counter sanity: usage gauges are non-negative and agree
//     with the last point of their Series; counters, resolved once at
//     construction, never decrease.
//   - Substrate self-audits: the VM manager's and every provider's
//     internal recounts (vmm.Manager.Audit, cloud.Provider.Audit).
//   - The live set itself: every entry sits at its recorded index and
//     belongs to an unsettled application.
//   - The node index: every attached node records its slot and its CM,
//     and the platform's index holds as many nodes as the VCs attach.
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
	tickFn func() // tick, bound once so arming allocates nothing

	// Checks counts completed audits; Violations counts invariant
	// failures reported through OnFail.
	Checks     int64
	Violations int64

	// counters lists every platform, VMM and provider counter;
	// lastCounts and lastSpend (per provider: TotalSpend, SpotSpend)
	// hold their values at the previous audit, for the monotonicity
	// checks.
	counters   []*metrics.Counter
	lastCounts []int64
	lastSpend  []float64

	// errs collects the violations of the check in progress.
	errs []error

	// cm and visitFree check that each free node of cm is in its lease
	// table; the visitor is bound once so the walk allocates nothing.
	cm        *ClusterManager
	visitFree func(id string) bool
}

// newAuditor returns an armed-on-demand auditor, or nil when disabled.
// cfg is the normalized Config.Audit: non-nil, with a positive Every.
func newAuditor(p *Platform, cfg *AuditConfig) *Auditor {
	if cfg.Disabled {
		return nil
	}
	onFail := cfg.OnFail
	if onFail == nil {
		onFail = func(err error) { panic(err) }
	}
	a := &Auditor{p: p, every: cfg.Every, onFail: onFail, counters: allCounters(p)}
	a.tickFn = a.tick
	a.lastCounts = make([]int64, len(a.counters))
	a.lastSpend = make([]float64, 2*len(p.Clouds))
	a.visitFree = func(id string) bool {
		if a.cm.node(id) == nil {
			a.fail("%s: free node %s not in CM lease table", a.cm.name, id)
		}
		return true
	}
	return a
}

// allCounters lists every platform, VMM and provider counter for the
// monotonicity check. Platform counters are enumerated by reflection so
// counters added later are covered automatically.
func allCounters(p *Platform) []*metrics.Counter {
	var out []*metrics.Counter
	rv := reflect.ValueOf(&p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			out = append(out, c)
		}
	}
	out = append(out, &p.VMM.Starts, &p.VMM.Stops, &p.VMM.Crashes)
	for _, prov := range p.Clouds {
		out = append(out, &prov.Launches, &prov.Failures, &prov.Revocations)
	}
	return out
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
	a.p.Eng.Schedule(a.every, a.tickFn)
}

func (a *Auditor) tick() {
	a.armed = false
	a.run()
	if a.p.remaining > 0 && a.p.Eng.Pending() > 0 {
		a.arm()
	}
}

// run performs one audit, reporting every violation through OnFail. The
// returned slice is reused by the next check.
func (a *Auditor) run() []error {
	if a == nil {
		return nil
	}
	a.check()
	a.Checks++
	a.report()
	return a.errs
}

// report delivers the violations the check in progress found.
func (a *Auditor) report() {
	for _, err := range a.errs {
		a.Violations++
		a.onFail(err)
	}
}

// freeze gives the ledger record of a settling application its last
// check; cost is the record's cost at the previous barrier. Violations
// go through OnFail, but the check adds nothing to Checks, which
// experiment outputs and /v1/metrics report.
func (a *Auditor) freeze(rec *metrics.AppRecord, cost float64) {
	if a == nil {
		return
	}
	a.errs = a.errs[:0]
	a.checkRecord(rec, cost)
	a.report()
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

// fail records one violation of the check in progress.
func (a *Auditor) fail(format string, args ...any) {
	a.errs = append(a.errs, fmt.Errorf("audit[t=%s]: "+format, append([]any{a.p.Eng.Now()}, args...)...))
}

// check evaluates the invariant catalogue over live state and leaves the
// violations found in a.errs, sorted so reports are deterministic.
func (a *Auditor) check() {
	a.errs = a.errs[:0]
	p := a.p
	now := p.Eng.Now()

	sumSegPrivate, sumSegCloud, totalOwned, totalAttached := 0, 0, 0, 0
	for _, name := range p.cmOrder {
		cm := p.cms[name]
		a.checkCM(cm)
		totalOwned += cm.OwnedPrivate
		totalAttached += len(cm.attached)
		for i := range cm.live {
			e := &cm.live[i]
			st := e.st
			if st.live != i {
				a.fail("%s/%s: live-set entry %d records index %d (-1: settled)", name, st.app.ID, i, st.live)
			}
			// Ledger sanity for the records that can still change.
			a.checkRecord(st.rec, e.cost)
			e.cost = st.rec.Cost
			if !st.segOpen {
				continue
			}
			if st.segRate < 0 {
				a.fail("%s/%s: open segment with negative rate %g", name, st.app.ID, st.segRate)
			}
			if st.segStart > now {
				a.fail("%s/%s: open segment starts in the future (%s)", name, st.app.ID, st.segStart)
			}
			if st.segPrivateN < 0 || st.segCloudN < 0 {
				a.fail("%s/%s: open segment with negative node counts (%d private, %d cloud)",
					name, st.app.ID, st.segPrivateN, st.segCloudN)
			}
			sumSegPrivate += st.segPrivateN
			sumSegCloud += st.segCloudN
		}
	}

	if n := len(p.nodes); n != totalAttached {
		a.fail("node index holds %d nodes but %d are attached across VCs", n, totalAttached)
	}

	// Money/usage conservation: the platform gauges are exactly the sum
	// of the open accounting segments (segment and gauge moves are
	// atomic in openSegment/closeSegment).
	if v := p.PrivateUsed.Value(); v != sumSegPrivate {
		a.fail("PrivateUsed gauge %d != %d private nodes across open segments", v, sumSegPrivate)
	}
	if v := p.CloudUsed.Value(); v != sumSegCloud {
		a.fail("CloudUsed gauge %d != %d cloud nodes across open segments", v, sumSegCloud)
	}

	// Substrate self-audits.
	vmCounts, err := p.VMM.Audit()
	if err != nil {
		a.errs = append(a.errs, err)
	}
	if run := vmCounts[vmm.StateRunning]; totalOwned > run {
		a.fail("%d private nodes attached across VCs but only %d VMs running", totalOwned, run)
	}
	for _, prov := range p.Clouds {
		if err := prov.Audit(); err != nil {
			a.errs = append(a.errs, err)
		}
	}

	// Gauge sanity: non-negative, and the last series point carries the
	// current value.
	a.checkGauge(p.PrivateUsed)
	a.checkGauge(p.CloudUsed)
	a.checkGauge(p.VMM.UsedGauge)
	for _, prov := range p.Clouds {
		a.checkGauge(prov.UsedGauge)
	}

	// Counter and spend monotonicity against the previous audit, if
	// there was one.
	for i, c := range a.counters {
		v := c.Count
		if a.Checks > 0 && v < a.lastCounts[i] {
			a.fail("counter #%d decreased (%d -> %d)", i, a.lastCounts[i], v)
		}
		if v < 0 {
			a.fail("negative counter value %d", v)
		}
		a.lastCounts[i] = v
	}
	for i, prov := range p.Clouds {
		for j, v := range [2]float64{prov.TotalSpend, prov.SpotSpend} {
			k := 2*i + j
			if a.Checks > 0 && v < a.lastSpend[k]-1e-9 {
				a.fail("provider spend #%d decreased (%g -> %g)", k, a.lastSpend[k], v)
			}
			a.lastSpend[k] = v
		}
	}

	if len(a.errs) > 1 {
		slices.SortFunc(a.errs, func(x, y error) int { return strings.Compare(x.Error(), y.Error()) })
	}
}

// checkRecord checks one ledger record: prices, penalties and costs are
// non-negative, a completed record is time-ordered, and the cost has not
// shrunk below prev, its value at the previous barrier.
func (a *Auditor) checkRecord(rec *metrics.AppRecord, prev float64) {
	if rec.Cost < 0 || rec.Penalty < 0 || rec.Price < 0 {
		a.fail("app %s: negative money (price=%g penalty=%g cost=%g)", rec.ID, rec.Price, rec.Penalty, rec.Cost)
	}
	if rec.EndTime > 0 && rec.StartTime > 0 && rec.EndTime < rec.StartTime {
		a.fail("app %s: ends before it starts (%s < %s)", rec.ID, rec.EndTime, rec.StartTime)
	}
	if rec.Cost < prev-1e-9 {
		a.fail("app %s: cost decreased (%g -> %g)", rec.ID, prev, rec.Cost)
	}
}

// checkCM audits one VC in one pass over its lease table: each node
// sits at the slot it records; node conservation between the
// framework, the CM lease table and OwnedPrivate; index recounts from
// the status each node's framework record reports; and
// lease-table/ResourceManager agreement for every attached node.
func (a *Auditor) checkCM(cm *ClusterManager) {
	name := cm.name
	var freeKind [2]int
	cloudAttached, idleDisabled := 0, 0
	for i, info := range cm.attached {
		id := info.id
		if info.slot != i || info.cm != cm {
			a.fail("%s: attached node %s sits at slot %d but records slot %d of %s", name, id, i, info.slot, info.cm.name)
		}
		if info.cloud {
			cloudAttached++
		}
		if st, ok := info.ref.Status(); !ok {
			a.fail("%s: node %s in CM lease table but unknown to framework", name, id)
		} else {
			if st.Cloud != info.cloud {
				a.fail("%s: node %s kind mismatch (framework cloud=%v, CM cloud=%v)", name, id, st.Cloud, info.cloud)
			}
			switch {
			case st.Busy:
			case st.Disabled:
				idleDisabled++
			case st.Cloud:
				freeKind[1]++
			default:
				freeKind[0]++
			}
		}
		a.checkNode(cm, info)
	}

	if n := cm.fw.NumNodes(); n != len(cm.attached) {
		a.fail("%s: framework holds %d nodes but CM lease table has %d", name, n, len(cm.attached))
	}
	if own := len(cm.attached) - cloudAttached; cm.OwnedPrivate != own {
		a.fail("%s: OwnedPrivate=%d but %d private nodes attached", name, cm.OwnedPrivate, own)
	}
	for k, cloudKind := range [2]bool{false, true} {
		if got := cm.fw.FreeNodeCount(cloudKind); got != freeKind[k] {
			a.fail("%s: FreeNodeCount(cloud=%v)=%d but recount is %d", name, cloudKind, got, freeKind[k])
		}
	}
	if got := len(cm.fw.IdleDisabledNodeIDs()); got != idleDisabled {
		a.fail("%s: %d idle-disabled nodes indexed but recount is %d", name, got, idleDisabled)
	}
	a.cm = cm
	cm.fw.VisitFreeNodes(false, a.visitFree)
	cm.fw.VisitFreeNodes(true, a.visitFree)
	a.cm = nil
}

// checkNode checks that an attached node is live at its substrate: a
// private node is a running VM; a cloud node has a running lease at its
// provider, billed at the price locked at launch. A private node reads
// the VM that attach resolved: the VMM never forgets a VM, so only a
// missing or foreign VM record means the VMM does not know the node.
// A cloud node's lease is looked up, since the lookup is the check that
// the provider still tracks it.
func (a *Auditor) checkNode(cm *ClusterManager, info *nodeInfo) {
	name, id := cm.name, info.id
	if !info.cloud {
		if info.vm == nil || info.vm.ID != id {
			a.fail("%s: attached private node %s unknown to VMM", name, id)
			return
		}
		if info.vm.State != vmm.StateRunning {
			a.fail("%s: attached private node %s is %v", name, id, info.vm.State)
		}
		return
	}
	if info.provider == nil {
		a.fail("%s: attached cloud node %s has no provider", name, id)
		return
	}
	inst, ok := info.provider.Lease(id)
	if !ok {
		a.fail("%s: attached cloud node %s has no tracked lease at %s", name, id, info.provider.Name())
		return
	}
	if inst.State != cloud.InstanceRunning {
		a.fail("%s: attached cloud node %s lease is %v", name, id, inst.State)
	}
	if inst.PriceAtLaunch != info.rate {
		a.fail("%s: cloud node %s billed at %g but lease price locked at %g", name, id, info.rate, inst.PriceAtLaunch)
	}
}

// checkGauge verifies non-negativity and that the gauge's series ends
// at its current value.
func (a *Auditor) checkGauge(g *metrics.Gauge) {
	v := g.Value()
	if v < 0 {
		a.fail("gauge %s negative (%d)", g.Series().Name, v)
	}
	pts := g.Series().Points()
	if n := len(pts); n > 0 && pts[n-1].Value != float64(v) {
		a.fail("gauge %s value %d disagrees with last series point %g", g.Series().Name, v, pts[n-1].Value)
	}
}
