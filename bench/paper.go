package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"meryn/internal/core"
	"meryn/internal/exp"
)

// The paper-burst workload replays the Figure 5/6 scenario (the paper's
// 65-application burst on two batch VCs with cloud bursting) under both
// policies, one run after another on one goroutine, with the default
// auditor. Runs are grouped in batches of seeds; each batch is one
// throughput sample.

// paperSeed derives run k's platform seed from the workload seed.
func paperSeed(seed int64, k int) int64 { return seed*1_000_000 + int64(k) }

var paperPolicies = []core.Policy{core.PolicyMeryn, core.PolicyStatic}

func paperScenario(seed int64, k int, pol core.Policy) exp.Scenario {
	return exp.Scenario{Policy: pol, Seed: paperSeed(seed, k)}
}

func runPaper(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	seed := rc.opts.seed
	// A batch (5 seeds under both policies, ~30 ms) is one timing sample.
	// Single runs are not: a collection lands in about every fifth run, so
	// the fastest single runs would leave out the collector. A group of 10
	// batches is the unit of the protocol counts and the re-run check; the
	// first group's results are held for the heap figure.
	batchSeeds, group, minBatches := 5, 10, 30
	warm := time.Duration(rc.opts.seconds * 0.1 * float64(time.Second))
	budget := time.Duration(rc.opts.seconds * float64(time.Second))
	if rc.opts.quick {
		batchSeeds, group, minBatches, warm = 1, 2, 2, 0
	}
	perBatch := batchSeeds * len(paperPolicies)
	o.sizes["runs_per_batch"] = perBatch
	o.sizes["apps_per_run"] = 65

	var prof *cpuProfile
	if rc.traced() {
		var err error
		if prof, err = startCPUProfile(filepath.Join(rc.workDir, "paper.cpu.pprof")); err != nil {
			return nil, err
		}
	}
	type sample struct {
		k      int
		digest uint64
	}
	var (
		latency []float64 // per batch: wall time over runs, seconds
		stats   runStats
		counts  simCounts
		verify  []sample // first and last seed of every group, meryn policy
		held    []*core.Results
		mem     *memDelta
	)
	start := time.Now()
	warmEnd := start.Add(warm)
	for b := 0; ; b++ {
		now := time.Now()
		if len(latency) >= minBatches && now.Sub(warmEnd) >= budget {
			break
		}
		if err := rc.ctx.Err(); err != nil {
			return nil, err
		}
		timed := !now.Before(warmEnd)
		if timed && mem == nil {
			mem = startMem()
		}
		batchStart := time.Now()
		for i := 0; i < batchSeeds; i++ {
			k := b*batchSeeds + i
			for _, pol := range paperPolicies {
				o.attempted++
				trace := fmt.Sprintf("paper/%d/%s", k, pol)
				r, err := runScenario(rc.tr, trace, 0, paperScenario(seed, k, pol), nil)
				if err != nil {
					o.fail("%v", err)
					continue
				}
				if err := settledAll(r); err != nil {
					o.fail("%s: %v", trace, err)
				}
				if b < group {
					counts.add(r.res)
					held = append(held, r.res)
				}
				if timed {
					stats.add(r)
				}
				first := b%group == 0 && i == 0
				last := b%group == group-1 && i == batchSeeds-1
				if (first || last) && pol == paperPolicies[0] {
					verify = append(verify, sample{k, r.digest})
				}
			}
		}
		if timed {
			latency = append(latency, time.Since(batchStart).Seconds()/float64(perBatch))
		}
	}
	if mem != nil {
		mem.into(o.layer, float64(len(stats.total)))
	}
	if prof != nil {
		if err := prof.stop(); err != nil {
			return nil, err
		}
	}
	o.sizes["batches"] = len(latency)
	o.sizes["runs_measured"] = len(stats.total)

	// Determinism: the first and last seed of every group reproduce
	// their digests when run again.
	for i, s := range verify {
		o.attempted++
		r, err := runScenario(nil, "verify", 0, paperScenario(seed, s.k, paperPolicies[0]), nil)
		d := s.digest
		if rc.opts.tamper == "digest" && i == len(verify)-1 {
			d ^= 1
		}
		if err != nil {
			o.fail("re-run of seed %d: %v", s.k, err)
		} else if r.digest != d {
			o.fail("re-run of seed %d: digest %016x, first run %016x", s.k, r.digest, d)
		}
	}
	if len(verify) > 0 {
		o.checks["first_run_digest"] = fmt.Sprintf("%016x", verify[0].digest)
	}

	run := percentile(latency, fastEnd)
	o.e2e["setup_s"] = median(stats.setup)
	o.e2e["items_per_s"] = 1 / run
	o.e2e["latency_ms"] = run * 1e3
	o.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(held)

	counts.perItem(o.layer, float64(counts.runs))
	stats.coreLayer(o.layer)
	if rc.traced() {
		if err := paperProbes(rc, o, prof); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// paperProbes adds the traced run's probes: ComputeBid and AuditNow
// costs on a platform paused at t=600 s, the auditor A/B, and the CPU
// profile's package shares.
func paperProbes(rc *runCtx, o *outcome, prof *cpuProfile) error {
	seed := rc.opts.seed
	calls := 20000
	if rc.opts.quick {
		calls = 200
	}
	pr, err := probe(paperScenario(seed, 0, core.PolicyMeryn), nil, calls)
	if err != nil {
		return err
	}
	o.layer["core.compute_bid_ns"] = pr.computeBidNS
	o.layer["core.audit_us_per_check"] = pr.auditUS

	share, err := auditAB(rc, o, func(i int) exp.Scenario {
		return paperScenario(seed, i/len(paperPolicies), paperPolicies[i%len(paperPolicies)])
	})
	if err != nil {
		return err
	}
	o.layer["core.audit_share"] = share
	return addCPUShares(rc.ctx, o, prof)
}

// auditAB runs the same scenarios with the auditor at its configured
// cadence and disabled, alternating, and returns the auditor's share of
// run time: 1 - wall(disabled)/wall(default), from the medians. The
// auditor is digest-neutral, so each pair must agree on the digest.
func auditAB(rc *runCtx, o *outcome, scenario func(i int) exp.Scenario) (float64, error) {
	pairs := 60
	if rc.opts.quick {
		pairs = 4
	}
	var on, off []float64
	for i := 0; i < pairs; i++ {
		sc := scenario(i)
		o.attempted += 2
		a, err := runScenario(nil, "audit-on", 0, sc, nil)
		if err != nil {
			o.fail("auditor A/B: %v", err)
			continue
		}
		b, err := runScenario(nil, "audit-off", 0, sc, auditOff)
		if err != nil {
			o.fail("auditor A/B: %v", err)
			continue
		}
		if a.digest != b.digest {
			o.fail("auditor A/B: seed %d digest %016x with the auditor, %016x without", sc.Seed, a.digest, b.digest)
		}
		on = append(on, a.total.Seconds())
		off = append(off, b.total.Seconds())
	}
	if len(on) == 0 {
		return 0, fmt.Errorf("auditor A/B: no run succeeded")
	}
	return 1 - median(off)/median(on), nil
}

// addCPUShares attributes the traced run's CPU profile to packages.
func addCPUShares(ctx context.Context, o *outcome, prof *cpuProfile) error {
	shares, err := cpuShares(ctx, prof.path)
	if err != nil {
		return err
	}
	for p, v := range shares {
		o.layer["cpu."+p] = v
	}
	return nil
}
