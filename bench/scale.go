package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"meryn/internal/cloud"
	"meryn/internal/cluster"
	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// The scale-100k workload is the `-exp scale` scenario at its 100k rung:
// 64 saturated batch VCs of 4 VMs each under the static policy, no
// cloud, auditor off. Its configuration and workload are mirrored from
// internal/exp/scale.go (which keeps them unexported); runScale checks
// the mirror against exp.Scale's digest at 2000 applications.
const (
	scaleVCs  = 64
	scaleWave = 320  // seconds between arrival waves (one app per VC)
	scaleWork = 1200 // reference CPU-seconds per application
	// scaleWindowWaves is how many arrival waves (1280 applications)
	// one Session.Step advances the clock over. Each window is one
	// latency sample: the wall time a driver waits for the platform to
	// simulate that stretch, as merynd's wall mode waits on every tick.
	scaleWindowWaves = 20
)

func scaleConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyStatic
	cfg.Seed = seed
	cfg.Site = cluster.Config{Name: "scale", Nodes: 64, CoresPerNode: 8, MemoryMBPerNode: 16384}
	cfg.PrivateVMCap = 256
	cfg.Clouds = []cloud.Config{}
	cfg.VCs = nil
	for i := 0; i < scaleVCs; i++ {
		cfg.VCs = append(cfg.VCs, core.VCConfig{
			Name: fmt.Sprintf("s%02d", i), Type: workload.TypeBatch, InitialVMs: 4,
		})
	}
	cfg.Audit = &core.AuditConfig{Disabled: true}
	return cfg
}

func scaleWorkload(n int) workload.Workload {
	w := make(workload.Workload, 0, n)
	for i := 0; i < n; i++ {
		w = append(w, workload.App{
			ID:       fmt.Sprintf("app-%07d", i),
			Type:     workload.TypeBatch,
			VC:       fmt.Sprintf("s%02d", i%scaleVCs),
			SubmitAt: sim.Seconds(float64(i/scaleVCs)*scaleWave + 0.01*float64(i%scaleVCs)),
			VMs:      1,
			Work:     scaleWork,
		})
	}
	return w
}

// scaleScenario wraps the mirrored configuration for the shared probes.
func scaleScenario(seed int64, apps int) exp.Scenario {
	cfg := scaleConfig(seed)
	return exp.Scenario{
		Policy:   cfg.Policy,
		Seed:     seed,
		Workload: scaleWorkload(apps),
		Mutate:   func(c *core.Config) { *c = scaleConfig(seed) },
	}
}

// scaleSetup generates the workload and builds and opens the platform:
// everything before the first submission.
func scaleSetup(tr *tracer, trace string, parent int64, seed int64, apps int) (workload.Workload, *core.Session, time.Duration, error) {
	sp := tr.begin(trace, "core.new_platform", parent)
	w := scaleWorkload(apps)
	p, err := core.NewPlatform(scaleConfig(seed))
	newPlat := sp.end()
	if err != nil {
		return nil, nil, newPlat, err
	}
	s, err := p.Open()
	return w, s, newPlat, err
}

// scaleRep is one timed rung run. As exp.Scale times it, the run is
// every submission plus the simulation to the end; here the simulation
// advances window by window and then drains.
type scaleRep struct {
	res     *core.Results
	digest  uint64
	setup   time.Duration
	newPlat time.Duration
	submit  time.Duration
	windows []float64 // seconds per Step window
	drain   time.Duration
	digestT time.Duration
	run     time.Duration // submissions through drain
}

func runScaleRep(tr *tracer, trace string, seed int64, apps int) (r scaleRep, err error) {
	root := tr.begin(trace, "run", 0)
	defer root.end()
	setup := tr.begin(trace, "setup", root.id)
	w, s, newPlat, err := scaleSetup(tr, trace, setup.id, seed, apps)
	r.newPlat = newPlat
	if err != nil {
		return r, err
	}
	r.setup = setup.end()
	runSpan := tr.begin(trace, "scale.run", root.id)
	sp := tr.begin(trace, "core.submit", runSpan.id)
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			return r, fmt.Errorf("submit %s: %w", w[i].ID, err)
		}
	}
	r.submit = sp.end()
	// Windows stop at the last arrival: applications are still running
	// there, so Drain settles at the same instant it would have without
	// the steps, and the digest matches exp.Scale's.
	last := w[len(w)-1].SubmitAt
	window := sim.Seconds(scaleWindowWaves * scaleWave)
	for t := window; t <= last; t += window {
		sp = tr.begin(trace, "core.step", runSpan.id)
		s.Step(t)
		r.windows = append(r.windows, sp.end().Seconds())
	}
	sp = tr.begin(trace, "core.drain", runSpan.id)
	res, err := s.Drain()
	r.drain = sp.end()
	r.run = runSpan.end()
	if err != nil {
		return r, fmt.Errorf("drain: %w", err)
	}
	sp = tr.begin(trace, "core.digest", root.id)
	r.digest = s.Digest()
	r.digestT = sp.end()
	r.res = res
	return r, nil
}

func runScale(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	seed := rc.opts.seed
	apps, minReps := 100_000, 3
	if rc.opts.quick {
		apps, minReps = 2000, 2
	}
	budget := time.Duration(rc.opts.seconds * float64(time.Second))
	o.sizes["apps"] = apps
	o.sizes["window_apps"] = scaleWindowWaves * scaleVCs

	// The mirror must be the experiment: same digest as exp.Scale.
	const mirrorApps = 2000
	o.attempted++
	ref, err := exp.Scale(seed, exp.Options{ScaleApps: []int{mirrorApps}, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("exp.Scale: %w", err)
	}
	mirror, err := runScaleRep(nil, "mirror", seed, mirrorApps)
	if err != nil {
		return nil, fmt.Errorf("mirror run: %w", err)
	}
	if got := fmt.Sprintf("%016x", mirror.digest); got != ref.Points[0].Digest {
		o.fail("mirrored scale config diverges from exp.Scale at %d apps: digest %s, want %s", mirrorApps, got, ref.Points[0].Digest)
	}
	mirror = scaleRep{}

	var prof *cpuProfile
	if rc.traced() {
		if prof, err = startCPUProfile(filepath.Join(rc.workDir, "scale.cpu.pprof")); err != nil {
			return nil, err
		}
	}
	var (
		setupS, newPlats, submits, drains, digests, runs, windows []float64
		last                                                      scaleRep
		digest0                                                   uint64
		counts                                                    simCounts
		eventsAll                                                 float64
		busy                                                      time.Duration
	)
	mem := startMem()
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < budget; rep++ {
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		// Each run starts from a collected heap, as the first one does, and
		// is preceded by one set-up alone: two set-up samples per run.
		last = scaleRep{}
		runtime.GC()
		o.attempted++
		setupStart := time.Now()
		if _, _, _, err := scaleSetup(nil, "setup", 0, seed, apps); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(setupStart).Seconds())
		runtime.GC()
		o.attempted++
		r, err := runScaleRep(rc.tr, fmt.Sprintf("scale/%d", rep), seed, apps)
		if err != nil {
			o.fail("rep %d: %v", rep, err)
			continue
		}
		if n := len(r.res.Ledger.All()); n != apps {
			o.fail("rep %d: %d of %d applications completed", rep, n, apps)
		}
		d := r.digest
		if rc.opts.tamper == "digest" && rep > 0 {
			d ^= 1
		}
		if rep == 0 {
			digest0 = d
			counts.add(r.res)
		} else if d != digest0 {
			o.fail("rep %d: digest %016x, rep 0 gave %016x", rep, d, digest0)
		}
		setupS = append(setupS, r.setup.Seconds())
		newPlats = append(newPlats, r.newPlat.Seconds())
		submits = append(submits, r.submit.Seconds()/float64(apps))
		drains = append(drains, r.drain.Seconds())
		digests = append(digests, r.digestT.Seconds())
		runs = append(runs, r.run.Seconds())
		windows = append(windows, r.windows...)
		eventsAll += float64(r.res.EventsFired)
		busy += r.run
		last = r
	}
	mem.into(o.layer, float64(len(runs)*apps))
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	if len(runs) == 0 {
		return o, nil
	}
	o.sizes["reps"] = len(runs)
	o.sizes["windows"] = len(windows)
	o.checks["digest"] = fmt.Sprintf("%016x", digest0)

	window := percentile(windows, fastEnd)
	o.e2e["setup_s"] = median(setupS)
	o.e2e["items_per_s"] = scaleWindowWaves * scaleVCs / window
	o.e2e["latency_ms"] = window * 1e3
	o.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)

	counts.perItem(o.layer, float64(apps))
	o.layer["sim.events_per_s"] = eventsAll / busy.Seconds()
	o.layer["core.new_platform_us"] = median(newPlats) * 1e6
	o.layer["core.submit_us_per_app"] = median(submits) * 1e6
	o.layer["core.drain_ms"] = median(drains) * 1e3
	o.layer["core.digest_us"] = median(digests) * 1e6
	if rc.traced() {
		last = scaleRep{}
		calls := 20000
		if rc.opts.quick {
			calls = 200
		}
		// The auditor is off in this workload; the probe turns it on to
		// price one audit of the 64-VC platform.
		pr, err := probe(scaleScenario(seed, apps), auditOn, calls)
		if err != nil {
			return nil, err
		}
		o.layer["core.compute_bid_ns"] = pr.computeBidNS
		o.layer["core.audit_us_per_check"] = pr.auditUS
		if err := addCPUShares(rc.ctx, o, prof); err != nil {
			return nil, err
		}
	}
	return o, nil
}
