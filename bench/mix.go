package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"meryn/internal/exp"
)

// The frameworks-mix workload runs the default services, serverless,
// spot and chaos experiment grids, one worker, pass after pass. It
// drives the same engine and core as paper-burst through service SLO
// ticks, scale-to-zero, spot revocations, chaos crashes and a 10 s
// audit cadence.

var mixMatrices = []string{"services", "serverless", "spot", "chaos"}

// Each pass runs the grids at one base seed, drawn from 1..mixBaseRange.
// The bases in hangingBases are skipped: at each of them one
// heavy-intensity chaos run never settles. The campaign leaves the VC
// with no nodes and a negative free-VM count, a few applications stay
// queued for good, and Drain keeps stepping the periodic ticks forever.
// That is a defect of the platform (see README.md); the list was found by
// running every base in the range with a 20 s limit per pass.
const mixBaseRange = 1000

var hangingBases = map[int64]bool{
	46: true, 288: true, 301: true, 309: true, 340: true, 358: true, 374: true, 412: true,
	413: true, 463: true, 466: true, 514: true, 549: true, 609: true, 675: true, 734: true,
	771: true, 816: true, 843: true, 853: true, 860: true, 907: true, 924: true,
}

var mixGoodBases = func() []int64 {
	var out []int64
	for b := int64(1); b <= mixBaseRange; b++ {
		if !hangingBases[b] {
			out = append(out, b)
		}
	}
	return out
}()

// mixBase is the grid base seed of pass i under the workload seed.
func mixBase(seed int64, i int) int64 {
	n := int64(len(mixGoodBases))
	k := ((seed*7919+int64(i))%n + n) % n
	return mixGoodBases[k]
}

// mixPass is one run of the four grids.
type mixPass struct {
	runs  int
	times map[string]time.Duration
	total time.Duration
	json  []byte // the four result documents, concatenated
	held  []any
}

func runMixPass(tr *tracer, base int64, reps int) (mixPass, error) {
	pass := mixPass{times: map[string]time.Duration{}}
	opt := exp.Options{Workers: 1, Reps: reps}
	trace := fmt.Sprintf("mix/%d", base)
	root := tr.begin(trace, "pass", 0)
	var buf bytes.Buffer
	for _, name := range mixMatrices {
		sp := tr.begin(trace, "exp."+name, root.id)
		var (
			runs int
			blob []byte
			held any
			err  error
		)
		switch name {
		case "services":
			m := exp.DefaultServicesMatrix()
			m.BaseSeed = base
			var r *exp.ServicesResult
			if r, err = m.Services(opt); err == nil {
				runs, held = r.Runs, r
				blob, err = r.JSON()
			}
		case "serverless":
			m := exp.DefaultServerlessMatrix()
			m.BaseSeed = base
			var r *exp.ServerlessResult
			if r, err = m.Serverless(opt); err == nil {
				runs, held = r.Runs, r
				blob, err = r.JSON()
			}
		case "spot":
			m := exp.DefaultSpotMatrix()
			m.BaseSeed = base
			var r *exp.SpotResult
			if r, err = m.Spot(opt); err == nil {
				runs, held = r.Runs, r
				blob, err = r.JSON()
			}
		case "chaos":
			m := exp.DefaultChaosMatrix()
			m.BaseSeed = base
			var r *exp.ChaosResult
			if r, err = m.Chaos(opt); err == nil {
				runs, held = r.Runs, r
				blob, err = r.JSON()
			}
		}
		pass.times[name] = sp.end()
		if err != nil {
			return pass, fmt.Errorf("%s grid: %w", name, err)
		}
		pass.runs += runs
		pass.held = append(pass.held, held)
		buf.Write(blob)
	}
	pass.total = root.end()
	pass.json = buf.Bytes()
	return pass, nil
}

// mixScenarios returns one run of each grid: the cell with the heaviest
// load of each (bursty services, the shortest idle gap, volatile spot
// prices, heavy chaos), replication j%3 of the pass at base j/3 — the
// same seeds the grids derive, so every probe run is one a pass makes.
// Set-up builds these platforms; the traced run drives them through the
// session API, out of reach inside exp.
func mixScenarios(seed int64, j int) []exp.Scenario {
	base, rep := mixBase(seed, j/3), j%3
	d := func(name string) int64 { return exp.DeriveSeed(base, fmt.Sprintf("%s/rep=%d", name, rep)) }
	return []exp.Scenario{
		exp.ServiceScenario(exp.ServiceScenarioConfig{
			Seed: d("services/scaleout/load=1.3/burst=2.5"), Policy: exp.ReplicaPolicyScaleOut, LoadMult: 1.3, BurstAmp: 2.5,
		}),
		exp.ServerlessScenario(exp.ServerlessScenarioConfig{
			Seed: d("serverless/gap=120/cold=10/conc=1"), IdleGapS: 120, ColdStartS: 10, ConcTarget: 1, Canary: true,
		}),
		exp.SpotScenario(exp.SpotScenarioConfig{
			Seed: d("spot/spot/vol=0.2/bid=1.1"), Policy: exp.SpotPolicySpot, Vol: 0.2, BidMult: 1.1,
		}),
		exp.ChaosScenario(exp.ChaosScenarioConfig{
			Seed: d("chaos/heavy/spot"), Policy: exp.SpotPolicySpot, Intensity: exp.ChaosHeavy,
		}),
	}
}

func runMix(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	seed := rc.opts.seed
	reps, minPasses := 0, 5 // reps 0: the grids' own default
	warm := time.Duration(rc.opts.seconds * 0.1 * float64(time.Second))
	budget := time.Duration(rc.opts.seconds * float64(time.Second))
	if rc.opts.quick {
		reps, minPasses, warm = 1, 2, 0
	}

	var prof *cpuProfile
	if rc.traced() {
		var err error
		if prof, err = startCPUProfile(filepath.Join(rc.workDir, "mix.cpu.pprof")); err != nil {
			return nil, err
		}
	}
	var (
		setupS  []float64
		totals  []float64
		shares  = map[string][]float64{}
		pass0   []byte
		runsPer int
		held    mixPass
		mem     *memDelta
		items   int
	)
	start := time.Now()
	warmEnd := start.Add(warm)
	for i := 0; ; i++ {
		now := time.Now()
		if len(totals) >= minPasses && now.Sub(warmEnd) >= budget {
			break
		}
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		timed := !now.Before(warmEnd)
		// Set-up, sampled before every pass: build and open one platform
		// of each framework.
		setupStart := time.Now()
		for _, sc := range mixScenarios(seed, i) {
			o.attempted++
			if _, _, _, _, err := openScenario(nil, "setup", 0, sc, nil); err != nil {
				o.fail("set-up: %v", err)
			}
		}
		setupS = append(setupS, time.Since(setupStart).Seconds())
		if timed && mem == nil {
			mem = startMem()
		}
		o.attempted++
		p, err := runMixPass(rc.tr, mixBase(seed, i), reps)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if i == 0 {
			// Pass 0's results are held for the heap figure: the same
			// results whatever the number of passes.
			pass0, runsPer, held = p.json, p.runs, p
		}
		if !timed {
			continue
		}
		totals = append(totals, p.total.Seconds())
		for _, name := range mixMatrices {
			shares[name] = append(shares[name], p.times[name].Seconds()/p.total.Seconds())
		}
		items += p.runs
	}
	if mem != nil {
		mem.into(o.layer, float64(items))
	}
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	o.sizes["passes"] = len(totals)
	o.sizes["runs_per_pass"] = runsPer

	// Determinism: pass 0 again, byte for byte.
	o.attempted++
	again, err := runMixPass(nil, mixBase(seed, 0), reps)
	if err != nil {
		o.fail("pass 0 re-run: %v", err)
	} else {
		if rc.opts.tamper == "digest" {
			again.json = append(again.json, ' ')
		}
		if !bytes.Equal(again.json, pass0) {
			o.fail("pass 0 re-run: grid JSON differs from the first run")
		}
	}
	o.checks["pass0_bytes"] = fmt.Sprint(len(pass0))

	pass := percentile(totals, fastEnd)
	o.e2e["setup_s"] = median(setupS)
	o.e2e["items_per_s"] = float64(runsPer) / pass
	o.e2e["latency_ms"] = pass * 1e3
	o.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(held)

	for _, name := range mixMatrices {
		o.layer["exp."+name+"_share"] = median(shares[name])
	}
	if rc.traced() {
		if err := mixProbes(rc, o, prof); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// mixProbes drives grid runs through the session API for the core.*
// timings and counts, probes ComputeBid and AuditNow on each framework's
// platform, and runs the auditor A/B over further grid runs.
func mixProbes(rc *runCtx, o *outcome, prof *cpuProfile) error {
	seed := rc.opts.seed
	probes, calls := 6, 20000
	if rc.opts.quick {
		probes, calls = 1, 200
	}
	var stats runStats
	var counts simCounts
	for j := 0; j < probes; j++ {
		for _, sc := range mixScenarios(seed, j) {
			o.attempted++
			r, err := runScenario(rc.tr, "mix-probe/"+sc.Label, 0, sc, nil)
			if err != nil {
				o.fail("probe run: %v", err)
				continue
			}
			stats.add(r)
			counts.add(r.res)
		}
	}
	if counts.runs == 0 {
		return fmt.Errorf("no probe run succeeded")
	}
	stats.coreLayer(o.layer)
	counts.perItem(o.layer, float64(counts.runs))

	var bids, audits []float64
	for _, sc := range mixScenarios(seed, 0) {
		pr, err := probe(sc, nil, calls)
		if err != nil {
			return err
		}
		bids = append(bids, pr.computeBidNS)
		audits = append(audits, pr.auditUS)
	}
	o.layer["core.compute_bid_ns"] = median(bids)
	o.layer["core.audit_us_per_check"] = median(audits)

	share, err := auditAB(rc, o, func(i int) exp.Scenario {
		return mixScenarios(seed, probes+i/len(mixMatrices))[i%len(mixMatrices)]
	})
	if err != nil {
		return err
	}
	o.layer["core.audit_share"] = share
	return addCPUShares(rc.ctx, o, prof)
}
