package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/framework"
	"meryn/internal/framework/batch"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/stats"
	"meryn/internal/vmm"
	"meryn/internal/workload"
)

// TestAuditorOnByDefault: a default config gets a live auditor, and a
// plain Run audits at the default cadence without being asked.
func TestAuditorOnByDefault(t *testing.T) {
	p := newPlatform(t, onevcConfig(4))
	if p.Audit == nil {
		t.Fatal("default platform has no auditor")
	}
	res := run(t, p, workload.Workload{
		batchApp("a1", "vc1", 0, 600),
		batchApp("a2", "vc1", 100, 600),
	})
	if res.AuditChecks == 0 {
		t.Fatal("run completed with zero audit checks")
	}
	if p.Audit.Violations != 0 {
		t.Fatalf("clean run reported %d violations", p.Audit.Violations)
	}
}

// TestAuditorDisabled: opting out leaves no auditor and no checks, and
// AuditNow degrades to a nil no-op.
func TestAuditorDisabled(t *testing.T) {
	cfg := onevcConfig(4)
	cfg.Audit = &AuditConfig{Disabled: true}
	p := newPlatform(t, cfg)
	if p.Audit != nil {
		t.Fatal("disabled config still built an auditor")
	}
	res := run(t, p, workload.Workload{batchApp("a1", "vc1", 0, 600)})
	if res.AuditChecks != 0 {
		t.Fatalf("disabled auditor recorded %d checks", res.AuditChecks)
	}
	if err := p.AuditNow(); err != nil {
		t.Fatalf("AuditNow on disabled auditor: %v", err)
	}
}

// TestAuditNowCleanPlatform: a freshly built platform passes the whole
// catalogue before any workload runs.
func TestAuditNowCleanPlatform(t *testing.T) {
	cfg := onevcConfig(4)
	var got []error
	cfg.Audit = &AuditConfig{OnFail: func(err error) { got = append(got, err) }}
	p := newPlatform(t, cfg)
	if err := p.AuditNow(); err != nil {
		t.Fatalf("fresh platform fails audit: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("OnFail received %d violations on a clean platform", len(got))
	}
	if p.Audit.Checks != 1 {
		t.Fatalf("Checks = %d after one AuditNow", p.Audit.Checks)
	}
}

// paperPlatform600 builds the paper platform (Meryn policy, the first
// paper-burst seed) and steps it to t=600 s, mid-burst: applications
// run on private and cloud nodes with open segments. audit replaces the
// default auditor config when non-nil.
func paperPlatform600(t *testing.T, audit *AuditConfig) *Platform {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Policy = PolicyMeryn
	cfg.Seed = 1000001
	if audit != nil {
		cfg.Audit = audit
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workload.Paper(workload.DefaultPaperConfig()) {
		if _, err := s.SubmitWith(app, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Step(sim.Seconds(600))
	return p
}

// firstNode returns the smallest attached node ID of the wanted kind
// across the platform's VCs.
func firstNode(p *Platform, wantCloud bool) (*ClusterManager, string) {
	var bestCM *ClusterManager
	best := ""
	for _, name := range p.cmOrder {
		cm := p.cms[name]
		for _, info := range cm.attached {
			if info.cloud == wantCloud && (best == "" || info.id < best) {
				bestCM, best = cm, info.id
			}
		}
	}
	return bestCM, best
}

// firstLive returns the live application with the smallest ID that
// satisfies keep.
func firstLive(p *Platform, keep func(*appState) bool) *appState {
	var best *appState
	for _, name := range p.cmOrder {
		for _, e := range p.cms[name].live {
			if keep(e.st) && (best == nil || e.st.app.ID < best.app.ID) {
				best = e.st
			}
		}
	}
	return best
}

// TestAuditorDetectsCorruption: each hand-made corruption of live state
// is caught, reported through OnFail (not the default panic) and named,
// and the live-state auditor reports exactly what the whole-history
// reference reports. Undoing the corruption makes both clean again.
func TestAuditorDetectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		want string
		// corrupt breaks one invariant and returns its undo.
		corrupt func(t *testing.T, p *Platform) func()
	}{
		{"owned-private", "OwnedPrivate", func(t *testing.T, p *Platform) func() {
			cm := p.cms["vc1"]
			cm.OwnedPrivate++
			return func() { cm.OwnedPrivate-- }
		}},
		{"gauge-off-series", "disagrees with last series point", func(t *testing.T, p *Platform) func() {
			g, now := p.CloudUsed, p.Eng.Now()
			g.Series().Record(now, float64(g.Value()+1))
			return func() { g.Series().Record(now, float64(g.Value())) }
		}},
		{"negative-segment-rate", "negative rate", func(t *testing.T, p *Platform) func() {
			st := firstLive(p, func(st *appState) bool { return st.segOpen })
			if st == nil {
				t.Fatal("no open segment at t=600 s")
			}
			rate := st.segRate
			st.segRate = -1
			return func() { st.segRate = rate }
		}},
		{"lowered-live-cost", "cost decreased", func(t *testing.T, p *Platform) func() {
			st := firstLive(p, func(*appState) bool { return true })
			if st == nil {
				t.Fatal("no live application at t=600 s")
			}
			cost := st.rec.Cost
			st.rec.Cost -= 1
			return func() { st.rec.Cost = cost }
		}},
		{"flipped-node-kind", "kind mismatch", func(t *testing.T, p *Platform) func() {
			cm, id := firstNode(p, false)
			info := cm.node(id)
			info.cloud = true
			return func() { info.cloud = false }
		}},
		{"cloud-rate-changed", "billed at", func(t *testing.T, p *Platform) func() {
			cm, id := firstNode(p, true)
			if cm == nil {
				t.Fatal("no cloud node attached at t=600 s")
			}
			info := cm.node(id)
			rate := info.rate
			info.rate += 1
			return func() { info.rate = rate }
		}},
		{"stopped-private-vm", "attached private node private-vm000 is terminated", func(t *testing.T, p *Platform) func() {
			cm, id := firstNode(p, false)
			vm := cm.node(id).vm
			vm.State = vmm.StateTerminated
			return func() { vm.State = vmm.StateRunning }
		}},
		{"stale-node-slot", "sits at slot 1 but records slot 0", func(t *testing.T, p *Platform) func() {
			cm := p.cms["vc1"]
			a := cm.attached
			a[0], a[1] = a[1], a[0]
			return func() { a[0], a[1] = a[1], a[0] }
		}},
		{"framework-dropped-node", "unknown to framework", func(t *testing.T, p *Platform) func() {
			// The framework drops the node behind the CM's back: the
			// auditor sees it through the record AddNode returned, the
			// reference through InspectNode. The undo attaches it again,
			// and the job it requeued restarts on it.
			cm, id := firstNode(p, false)
			info := cm.node(id)
			if err := cm.fw.FailNode(id); err != nil {
				t.Fatal(err)
			}
			return func() {
				info.ref = cm.fw.AddNode(framework.Node{ID: id, SpeedFactor: info.vm.SpeedFactor})
			}
		}},
		{"unindexed-node", "node index holds", func(t *testing.T, p *Platform) func() {
			cm, id := firstNode(p, false)
			info := cm.node(id)
			delete(p.nodes, id)
			return func() { p.nodes[id] = info }
		}},
		{"foreign-free-node", "free node stray not in CM lease table", func(t *testing.T, p *Platform) func() {
			// A node the CM never attached joins vc1's batch table.
			// Attach schedules nothing, so the node stays free, and only
			// the free-node walk names it.
			cm := p.cms["vc1"]
			cm.fw.(*batch.Batch).Attach(framework.Node{ID: "stray"})
			return func() {
				if err := cm.fw.RemoveNode("stray"); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []error
			p := paperPlatform600(t, &AuditConfig{OnFail: func(err error) { got = append(got, err) }})
			var ref referenceState
			both := func(stage string) error {
				t.Helper()
				n := len(got)
				err := p.AuditNow()
				if live, want := messages(got[n:]), messages(referenceCheck(p, &ref)); !slices.Equal(live, want) {
					t.Fatalf("%s: auditor reports\n  %s\nreference reports\n  %s",
						stage, strings.Join(live, "\n  "), strings.Join(want, "\n  "))
				}
				return err
			}
			if err := both("before"); err != nil {
				t.Fatalf("clean platform fails the audit: %v", err)
			}
			undo := tc.corrupt(t, p)
			violations := p.Audit.Violations
			err := both("corrupted")
			if err == nil {
				t.Fatal("corruption passed the audit")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation does not name the broken invariant %q: %v", tc.want, err)
			}
			if p.Audit.Violations == violations {
				t.Fatal("Violations counter not incremented")
			}
			undo()
			if err := both("restored"); err != nil {
				t.Fatalf("restored platform still fails: %v", err)
			}
		})
	}
}

// TestAuditReportOrderStable: violations are reported in one order,
// audit after audit, and sorted, so the order does not depend on where
// attaches and detaches left the corrupted nodes in the lease table.
// The two corrupted nodes sit half a table apart, in the order opposite
// to their messages'.
func TestAuditReportOrderStable(t *testing.T) {
	p := paperPlatform600(t, &AuditConfig{OnFail: func(error) {}})
	cm := p.cms["vc1"]
	var private []*nodeInfo
	for _, info := range cm.attached {
		if !info.cloud {
			private = append(private, info)
		}
	}
	x, y := private[0], private[len(private)/2]
	if x.id < y.id {
		cm.attached[x.slot], cm.attached[y.slot] = y, x
		x.slot, y.slot = y.slot, x.slot
	}
	x.cloud, y.cloud = true, true
	first := p.AuditNow()
	if first == nil {
		t.Fatal("two flipped nodes passed the audit")
	}
	for i := 0; i < 20; i++ {
		if err := p.AuditNow(); err == nil || err.Error() != first.Error() {
			t.Fatalf("audit %d reported\n%v\nfirst audit reported\n%v", i, err, first)
		}
	}
	if msgs := strings.Split(first.Error(), "\n"); !slices.IsSorted(msgs) {
		t.Fatalf("violations not sorted:\n%v", first)
	}
}

// TestAuditCostFollowsLiveState: after 1000 applications settle one at
// a time, a barrier walks only the application still running. At every
// barrier the VC's live set holds exactly its accepted, unsettled
// applications.
func TestAuditCostFollowsLiveState(t *testing.T) {
	const n = 1000
	p := newPlatform(t, onevcConfig(1))
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := p.CM("vc1")
	var checks int64
	peak := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("app-%04d", i)
		if _, err := s.SubmitWith(batchApp(id, "vc1", sim.ToSeconds(p.Eng.Now()), 300), nil); err != nil {
			t.Fatal(err)
		}
		for p.remaining > 0 && p.Eng.Step() {
			if p.Audit.Checks == checks {
				continue
			}
			checks = p.Audit.Checks
			want := 0
			st := s.negs[id].st // set once the contract is agreed
			if st != nil && st.live >= 0 {
				want = 1
			}
			if len(cm.live) != want || want == 1 && cm.live[0].st != st {
				t.Fatalf("barrier %d (%s): live set holds %d apps, want %d", checks, id, len(cm.live), want)
			}
			peak = max(peak, len(cm.live))
		}
	}
	if checks < n || peak != 1 {
		t.Fatalf("%d barriers, live-set peak %d: want >= %d barriers and a peak of 1", checks, peak, n)
	}
	if cm.accepted != n || len(cm.live) != 0 || p.remaining != 0 {
		t.Fatalf("%d apps accepted, %d live, %d unsettled after settling %d", cm.accepted, len(cm.live), p.remaining, n)
	}
}

// TestAppSettledTwicePanics: a second settle of one application is a
// bookkeeping bug and fails loudly with the application's ID.
func TestAppSettledTwicePanics(t *testing.T) {
	p := newPlatform(t, onevcConfig(1))
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(batchApp("a1", "vc1", 0, 300), nil); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("workload did not settle")
	}
	expectPanic(t, "a1", func() { p.appSettled("a1", nil, 0) })
}

// TestSettledAppJobEventsPanic: once an application settles its record
// is frozen and no barrier walks it again, so each of the five job
// callbacks, the only writers of the audited fields, panics naming the
// VC, the event and the application.
func TestSettledAppJobEventsPanic(t *testing.T) {
	p := newPlatform(t, onevcConfig(1))
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(batchApp("a1", "vc1", 0, 300), nil); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("workload did not settle")
	}
	cm, _ := p.CM("vc1")
	j := s.negs["a1"].st.job
	for _, ev := range []struct {
		name string
		fn   func(*framework.Job)
	}{
		{"start", cm.onJobStart},
		{"scale", cm.onJobScale},
		{"suspend", cm.onJobSuspend},
		{"requeue", cm.onJobRequeue},
		{"finish", cm.onJobFinish},
	} {
		expectPanic(t, "vc1: "+ev.name+" event for settled application a1", func() { ev.fn(j) })
	}
}

// expectPanic runs fn and fails unless it panics with a message
// containing want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// TestAuditorMatchesReference runs the whole-history reference beside
// the live-state auditor at every barrier of three runs: the random-ops
// soak (crashes, spot revocations, price shocks), the paper scenario
// under stochastic crashes, and the mixed workload. Both must report
// the same violations everywhere. -short keeps one soak seed, so the
// race detector covers the live set.
func TestAuditorMatchesReference(t *testing.T) {
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("soak/seed=%d", seed), func(t *testing.T) { soak(t, seed, true) })
	}
	drainUnderOracle := func(t *testing.T, cfg Config, w workload.Workload) *Results {
		var got []error
		cfg.Audit = &AuditConfig{OnFail: func(err error) { got = append(got, err) }}
		p := newPlatform(t, cfg)
		s, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range w {
			if _, err := s.SubmitWith(app, nil); err != nil {
				t.Fatal(err)
			}
		}
		o := newOracle(t, p, &got)
		res, err := o.drain(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("clean run reported %d violations; first: %v", len(got), got[0])
		}
		return res
	}
	t.Run("paper-crashes/seed=11", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.CrashMTBF = stats.Exponential{MeanV: 5000}
		res := drainUnderOracle(t, cfg, workload.Paper(workload.DefaultPaperConfig()))
		if res.Counters.NodeCrashes.Count == 0 {
			t.Fatal("no crash drawn: the run exercises no crash path")
		}
	})
	t.Run("mixed", func(t *testing.T) { drainUnderOracle(t, mixedConfig(), mixedWorkload()) })
}

// oracle drives a run event by event and, at every audit barrier,
// checks that referenceCheck reports what the live-state auditor just
// reported through OnFail. A nil oracle drives the session plainly.
type oracle struct {
	t        *testing.T
	p        *Platform
	got      *[]error // every violation OnFail received
	ref      referenceState
	seen     int   // violations already compared
	checks   int64 // Audit.Checks at the last comparison
	barriers int
}

func newOracle(t *testing.T, p *Platform, got *[]error) *oracle {
	return &oracle{t: t, p: p, got: got}
}

// step fires one event and compares the auditors if it was a barrier.
func (o *oracle) step() bool {
	if !o.p.Eng.Step() {
		return false
	}
	o.observe()
	return true
}

// observe compares the auditors if a barrier ran since the last call.
// Violations reported outside a barrier come from the check at settle,
// which the reference has no counterpart for; they fail the test.
func (o *oracle) observe() {
	if o == nil {
		return
	}
	o.t.Helper()
	fresh := (*o.got)[o.seen:]
	o.seen = len(*o.got)
	if o.p.Audit.Checks == o.checks {
		if len(fresh) > 0 {
			o.t.Fatalf("violation outside a barrier at t=%s: %v", o.p.Eng.Now(), fresh[0])
		}
		return
	}
	if o.p.Audit.Checks != o.checks+1 {
		o.t.Fatalf("%d barriers ran unobserved", o.p.Audit.Checks-o.checks-1)
	}
	o.checks = o.p.Audit.Checks
	o.barriers++
	if live, want := messages(fresh), messages(referenceCheck(o.p, &o.ref)); !slices.Equal(live, want) {
		o.t.Fatalf("barrier %d at t=%s: auditor reports\n  %s\nreference reports\n  %s",
			o.barriers, o.p.Eng.Now(), strings.Join(live, "\n  "), strings.Join(want, "\n  "))
	}
}

// stepTo advances the session to until, as Session.Step does (an event
// due exactly at until and queued after the call may fire on the next
// advance instead).
func (o *oracle) stepTo(s *Session, until sim.Time) {
	if o == nil {
		s.Step(until)
		return
	}
	reached := false
	o.p.Eng.At(until, func() { reached = true })
	for !reached && o.step() {
	}
}

// drain settles every application and runs the settle-grace window
// under the oracle, then lets Session.Drain take its final barrier.
func (o *oracle) drain(s *Session) (*Results, error) {
	if o == nil {
		return s.Drain()
	}
	for o.p.remaining > 0 && o.step() {
	}
	o.stepTo(s, o.p.Eng.Now()+settleGrace)
	res, err := s.Drain()
	o.observe()
	if o.barriers == 0 {
		o.t.Fatal("no audit barrier compared")
	}
	return res, err
}

// messages returns the sorted violation messages.
func messages(errs []error) []string {
	out := make([]string, len(errs))
	for i, err := range errs {
		out[i] = err.Error()
	}
	sort.Strings(out)
	return out
}

// referenceState is what referenceCheck carries from one barrier to
// the next.
type referenceState struct {
	lastCounters []int64
	lastSpend    []float64
	lastCost     map[string]float64
}

// referenceCheck is the whole-history auditor that the live-state
// Auditor replaced, kept as its test oracle: each barrier sorts every
// application a VC has accepted to sum the open segments, walks every
// VC's lease table in sorted order, recounts counters by reflection and
// rechecks the whole ledger against each record's cost at the previous
// barrier. It returns the violations found.
// dispatchedApps indexes by ID the applications cm has dispatched to
// its framework, resolving each ledger record through the framework's
// job table: the by-ID view of a VC the reference check walks.
func dispatchedApps(cm *ClusterManager) map[string]*appState {
	out := make(map[string]*appState)
	for _, rec := range cm.p.Ledger.All() {
		if j, ok := cm.fw.Get(rec.ID); ok {
			if st := cm.owned(j); st != nil {
				out[rec.ID] = st
			}
		}
	}
	return out
}

func referenceCheck(p *Platform, ref *referenceState) []error {
	var errs []error
	now := p.Eng.Now()
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("audit[t=%s]: "+format, append([]any{now}, args...)...))
	}

	sumSegPrivate, sumSegCloud, totalOwned := 0, 0, 0
	for _, name := range p.cmOrder {
		cm := p.cms[name]
		referenceCheckCM(cm, fail)
		totalOwned += cm.OwnedPrivate
		apps := dispatchedApps(cm)
		ids := make([]string, 0, len(apps))
		for id := range apps {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			st := apps[id]
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

	// The node index, from the map side: each indexed node sits in a
	// lease table at the slot it records, found by searching them all,
	// and the index holds as many nodes as the lease tables.
	attached := 0
	for _, name := range p.cmOrder {
		attached += len(p.cms[name].attached)
	}
	indexed := slices.Sorted(maps.Keys(p.nodes))
	for _, id := range indexed {
		info := p.nodes[id]
		for _, name := range p.cmOrder {
			cm := p.cms[name]
			if i := slices.Index(cm.attached, info); i >= 0 && (i != info.slot || cm != info.cm) {
				fail("%s: attached node %s sits at slot %d but records slot %d of %s", name, id, i, info.slot, info.cm.name)
			}
		}
	}
	if len(indexed) != attached {
		fail("node index holds %d nodes but %d are attached across VCs", len(indexed), attached)
	}

	if v := p.PrivateUsed.Value(); v != sumSegPrivate {
		fail("PrivateUsed gauge %d != %d private nodes across open segments", v, sumSegPrivate)
	}
	if v := p.CloudUsed.Value(); v != sumSegCloud {
		fail("CloudUsed gauge %d != %d cloud nodes across open segments", v, sumSegCloud)
	}

	if _, err := p.VMM.Audit(); err != nil {
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

	gauges := []*metrics.Gauge{p.PrivateUsed, p.CloudUsed, p.VMM.UsedGauge}
	for _, prov := range p.Clouds {
		gauges = append(gauges, prov.UsedGauge)
	}
	for _, g := range gauges {
		v := g.Value()
		if v < 0 {
			fail("gauge %s negative (%d)", g.Series().Name, v)
		}
		pts := g.Series().Points()
		if n := len(pts); n > 0 && pts[n-1].Value != float64(v) {
			fail("gauge %s value %d disagrees with last series point %g", g.Series().Name, v, pts[n-1].Value)
		}
	}

	var cur []int64
	rv := reflect.ValueOf(&p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			cur = append(cur, c.Count)
		}
	}
	cur = append(cur, p.VMM.Starts.Count, p.VMM.Stops.Count, p.VMM.Crashes.Count)
	for _, prov := range p.Clouds {
		cur = append(cur, prov.Launches.Count, prov.Failures.Count, prov.Revocations.Count)
	}
	if ref.lastCounters != nil && len(ref.lastCounters) == len(cur) {
		for i, v := range cur {
			if v < ref.lastCounters[i] {
				fail("counter #%d decreased (%d -> %d)", i, ref.lastCounters[i], v)
			}
		}
	}
	for _, v := range cur {
		if v < 0 {
			fail("negative counter value %d", v)
		}
	}
	ref.lastCounters = cur

	spend := make([]float64, 0, 2*len(p.Clouds))
	for _, prov := range p.Clouds {
		spend = append(spend, prov.TotalSpend, prov.SpotSpend)
	}
	if ref.lastSpend != nil && len(ref.lastSpend) == len(spend) {
		for i, v := range spend {
			if v < ref.lastSpend[i]-1e-9 {
				fail("provider spend #%d decreased (%g -> %g)", i, ref.lastSpend[i], v)
			}
		}
	}
	ref.lastSpend = spend

	if ref.lastCost == nil {
		ref.lastCost = make(map[string]float64)
	}
	for _, rec := range p.Ledger.All() {
		if rec.Cost < 0 || rec.Penalty < 0 || rec.Price < 0 {
			fail("app %s: negative money (price=%g penalty=%g cost=%g)", rec.ID, rec.Price, rec.Penalty, rec.Cost)
		}
		if rec.EndTime > 0 && rec.StartTime > 0 && rec.EndTime < rec.StartTime {
			fail("app %s: ends before it starts (%s < %s)", rec.ID, rec.EndTime, rec.StartTime)
		}
		if prev, ok := ref.lastCost[rec.ID]; ok && rec.Cost < prev-1e-9 {
			fail("app %s: cost decreased (%g -> %g)", rec.ID, prev, rec.Cost)
		}
		ref.lastCost[rec.ID] = rec.Cost
	}

	if p.remaining < 0 {
		fail("negative remaining-application count %d", p.remaining)
	}
	return errs
}

// referenceCheckCM is the reference's per-VC audit, walking the lease
// table in sorted order. It looks every private node up at the VMM and
// every cloud node at its provider, where the auditor reads the VM that
// attach resolved.
func referenceCheckCM(cm *ClusterManager, fail func(string, ...any)) {
	name := cm.name
	attached, cloudAttached := len(cm.attached), 0
	table := make(map[string]*nodeInfo, attached)
	for _, info := range cm.attached {
		table[info.id] = info
		if info.cloud {
			cloudAttached++
		}
	}
	ids := slices.Sorted(maps.Keys(table))

	if n := cm.fw.NumNodes(); n != attached {
		fail("%s: framework holds %d nodes but CM lease table has %d", name, n, attached)
	}
	if own := attached - cloudAttached; cm.OwnedPrivate != own {
		fail("%s: OwnedPrivate=%d but %d private nodes attached", name, cm.OwnedPrivate, own)
	}

	var freeKind [2]int
	for _, id := range ids {
		st, ok := cm.fw.InspectNode(id)
		if !ok {
			fail("%s: node %s in CM lease table but unknown to framework", name, id)
			continue
		}
		if st.Cloud != table[id].cloud {
			fail("%s: node %s kind mismatch (framework cloud=%v, CM cloud=%v)", name, id, st.Cloud, table[id].cloud)
		}
		if st.Busy {
			continue
		}
		if st.Cloud {
			freeKind[1]++
		} else {
			freeKind[0]++
		}
	}
	for k, cloudKind := range []bool{false, true} {
		if got := cm.fw.FreeNodeCount(cloudKind); got != freeKind[k] {
			fail("%s: FreeNodeCount(cloud=%v)=%d but recount is %d", name, cloudKind, got, freeKind[k])
		}
		cm.fw.VisitFreeNodes(cloudKind, func(id string) bool {
			if info := cm.p.nodes[id]; info == nil || info.cm != cm {
				fail("%s: free node %s not in CM lease table", name, id)
			}
			return true
		})
	}

	for _, id := range ids {
		info := table[id]
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
		inst, ok := info.provider.Lease(id)
		if !ok {
			fail("%s: attached cloud node %s has no tracked lease at %s", name, id, info.provider.Name())
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

// TestAuditorNeverKeepsEngineAlive: with work done and the queue empty
// the audit timer must not re-arm — otherwise event-exhaustion drivers
// would spin on self-renewing audit events forever.
func TestAuditorNeverKeepsEngineAlive(t *testing.T) {
	cfg := onevcConfig(2)
	cfg.Audit = &AuditConfig{Every: sim.Seconds(5)}
	p := newPlatform(t, cfg)
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(batchApp("a1", "vc1", 0, 300), nil); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("workload did not settle")
	}
	// The engine must run dry: a live audit timer would make this loop
	// (and any RunAll-style driver) spin forever.
	for i := 0; p.Eng.Step(); i++ {
		if i > 10000 {
			t.Fatal("engine never drains; audit timer keeps re-arming")
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditConfigValidation: a negative cadence is rejected, zero gets
// the default.
func TestAuditConfigValidation(t *testing.T) {
	cfg := onevcConfig(2)
	cfg.Audit = &AuditConfig{Every: -sim.Seconds(1)}
	if _, err := NewPlatform(cfg); err == nil {
		t.Fatal("negative audit interval accepted")
	}
	cfg = onevcConfig(2)
	p := newPlatform(t, cfg)
	if p.Audit.every != sim.Seconds(defaultAuditEveryS) {
		t.Fatalf("default cadence = %s", p.Audit.every)
	}
}
