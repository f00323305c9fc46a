package main

import (
	"fmt"
	"runtime"
	"time"

	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// simRun is one platform run driven through the session API, with the
// wall time of each public call the benchmark makes.
type simRun struct {
	res     *core.Results
	digest  uint64
	apps    int
	setup   time.Duration // workload generation + NewPlatform + Open
	newPlat time.Duration
	submit  time.Duration // every SubmitWith call
	drain   time.Duration
	digestT time.Duration
	total   time.Duration // setup through digest
}

// openScenario does what exp.Scenario.Run does before the first
// submission: build the configuration (adjust, when non-nil, edits it
// after the scenario's own Mutate), call NewPlatform, run the scenario's
// Setup hook and open a session. It returns the workload too, and how
// long NewPlatform took.
func openScenario(tr *tracer, trace string, parent int64, sc exp.Scenario, adjust func(*core.Config)) (workload.Workload, *core.Platform, *core.Session, time.Duration, error) {
	w := sc.Workload
	if w == nil {
		w = workload.Paper(workload.DefaultPaperConfig())
	}
	cfg := core.DefaultConfig()
	cfg.Policy = sc.Policy
	cfg.Seed = sc.Seed
	if sc.Mutate != nil {
		sc.Mutate(&cfg)
	}
	if adjust != nil {
		adjust(&cfg)
	}
	sp := tr.begin(trace, "core.new_platform", parent)
	p, err := core.NewPlatform(cfg)
	newPlat := sp.end()
	if err != nil {
		return nil, nil, nil, newPlat, fmt.Errorf("%s: NewPlatform: %w", trace, err)
	}
	if sc.Setup != nil {
		sc.Setup(p)
	}
	s, err := p.Open()
	if err != nil {
		return nil, nil, nil, newPlat, fmt.Errorf("%s: Open: %w", trace, err)
	}
	return w, p, s, newPlat, nil
}

// runScenario executes sc as exp.Scenario.Run does (core.Platform.Run is
// a thin wrapper over the same session calls) but makes each call
// itself, so it can time it: NewPlatform, Open, one SubmitWith per
// application, Drain and Digest. An invariant the auditor finds broken
// panics inside the engine; that is returned as an error so it counts
// as a failed run.
func runScenario(tr *tracer, trace string, parent int64, sc exp.Scenario, adjust func(*core.Config)) (r simRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", trace, p)
		}
	}()
	root := tr.begin(trace, "run", parent)
	setup := tr.begin(trace, "setup", root.id)
	w, p, s, newPlat, err := openScenario(tr, trace, setup.id, sc, adjust)
	r.newPlat = newPlat
	if err != nil {
		return r, err
	}
	r.setup = setup.end()
	p.Ledger.Reserve(len(w)) // as core.Platform.Run does
	sp := tr.begin(trace, "core.submit", root.id)
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			return r, fmt.Errorf("%s: SubmitWith %s: %w", trace, w[i].ID, err)
		}
	}
	r.submit = sp.end()
	sp = tr.begin(trace, "core.drain", root.id)
	res, err := s.Drain()
	r.drain = sp.end()
	if err != nil {
		return r, fmt.Errorf("%s: Drain: %w", trace, err)
	}
	sp = tr.begin(trace, "core.digest", root.id)
	r.digest = s.Digest()
	r.digestT = sp.end()
	r.total = root.end()
	r.res, r.apps = res, len(w)
	return r, nil
}

// settledAll reports whether every submitted application has an
// accounting record with an end time: the run completed all of them.
func settledAll(r simRun) error {
	recs := r.res.Ledger.All()
	if len(recs) != r.apps {
		return fmt.Errorf("%d of %d applications settled", len(recs), r.apps)
	}
	for _, rec := range recs {
		if rec.EndTime <= 0 {
			return fmt.Errorf("application %s never finished", rec.ID)
		}
	}
	return nil
}

// simCounts accumulates the protocol counts of a fixed set of runs.
type simCounts struct {
	runs                                      int
	events, audits                            float64
	bidRounds, transfers, leases, suspensions float64
}

func (c *simCounts) add(res *core.Results) {
	c.runs++
	c.events += float64(res.EventsFired)
	c.audits += float64(res.AuditChecks)
	c.bidRounds += float64(res.Counters.BidRounds.Count)
	c.transfers += float64(res.Counters.VMTransfers.Count)
	c.leases += float64(res.Counters.CloudLeases.Count)
	c.suspensions += float64(res.Counters.Suspensions.Count)
}

// perItem writes the counts divided by items into the per-layer map.
func (c *simCounts) perItem(layer map[string]float64, items float64) {
	layer["sim.events_per_item"] = c.events / items
	layer["core.audit_checks_per_item"] = c.audits / items
	layer["core.bid_rounds_per_item"] = c.bidRounds / items
	layer["core.vm_transfers_per_item"] = c.transfers / items
	layer["core.cloud_leases_per_item"] = c.leases / items
	layer["core.suspensions_per_item"] = c.suspensions / items
}

// runStats collects the per-call timings of measured simRuns.
type runStats struct {
	setup, newPlat, submitPerApp, drain, digest, total []float64 // seconds
	events                                             float64
	busy                                               time.Duration
}

func (s *runStats) add(r simRun) {
	s.setup = append(s.setup, r.setup.Seconds())
	s.newPlat = append(s.newPlat, r.newPlat.Seconds())
	s.submitPerApp = append(s.submitPerApp, r.submit.Seconds()/float64(max(1, r.apps)))
	s.drain = append(s.drain, r.drain.Seconds())
	s.digest = append(s.digest, r.digestT.Seconds())
	s.total = append(s.total, r.total.Seconds())
	s.events += float64(r.res.EventsFired)
	s.busy += r.total
}

// coreLayer writes the session-call medians into the per-layer map.
func (s *runStats) coreLayer(layer map[string]float64) {
	layer["core.new_platform_us"] = median(s.newPlat) * 1e6
	layer["core.submit_us_per_app"] = median(s.submitPerApp) * 1e6
	layer["core.drain_ms"] = median(s.drain) * 1e3
	layer["core.digest_us"] = median(s.digest) * 1e6
	layer["sim.events_per_s"] = s.events / s.busy.Seconds()
}

// memDelta measures allocations between two points.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// into writes the runtime.* per-layer metrics for items work items.
func (m *memDelta) into(layer map[string]float64, items float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layer["runtime.allocs_per_item"] = float64(after.Mallocs-m.before.Mallocs) / items
	layer["runtime.bytes_per_item"] = float64(after.TotalAlloc-m.before.TotalAlloc) / items
	layer["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
}

// liveHeapMB forces a collection and returns the live heap in MB; the
// caller keeps its results reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// probeStep is the virtual instant the per-layer probes inspect a
// platform at: far enough into every scenario for the VCs to be busy.
const probeStep = 600

// probeResult holds the per-call costs measured on a platform paused at
// probeStep.
type probeResult struct {
	computeBidNS float64
	auditUS      float64
}

// probe builds sc's platform, submits its workload, steps it to t=600 s
// and times ClusterManager.ComputeBid on every VC and Platform.AuditNow,
// each as the median of repeated batches. adjust may re-enable the
// auditor on a configuration that disables it, so the audit cost of
// every workload's platform shape can be measured.
func probe(sc exp.Scenario, adjust func(*core.Config), calls int) (pr probeResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("probe: panic: %v", p)
		}
	}()
	w, p, s, _, err := openScenario(nil, "probe", 0, sc, adjust)
	if err != nil {
		return pr, err
	}
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			return pr, err
		}
	}
	s.Step(sim.Seconds(probeStep))
	return probePlatform(p, calls), nil
}

// probePlatform times ComputeBid (one VM for 600 s, on every VC in
// turn) and AuditNow on p as it stands.
func probePlatform(p *core.Platform, calls int) probeResult {
	const batches = 5
	var bids, audits []float64
	names := p.VCNames()
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			cm, _ := p.CM(names[i%len(names)])
			cm.ComputeBid(1, sim.Seconds(probeStep))
		}
		bids = append(bids, float64(time.Since(start).Nanoseconds())/float64(calls))
	}
	auditCalls := max(1, calls/100)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < auditCalls; i++ {
			_ = p.AuditNow()
		}
		audits = append(audits, float64(time.Since(start).Nanoseconds())/1e3/float64(auditCalls))
	}
	return probeResult{computeBidNS: median(bids), auditUS: median(audits)}
}

// auditOff disables the invariant auditor (the A/B baseline).
func auditOff(c *core.Config) { c.Audit = &core.AuditConfig{Disabled: true} }

// auditOn enables the auditor at its default cadence.
func auditOn(c *core.Config) { c.Audit = nil }
