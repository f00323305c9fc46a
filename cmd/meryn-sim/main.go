// Command meryn-sim runs one Meryn scenario and prints a run summary:
// per-VC placements, SLA outcomes, cost/revenue/profit and (optionally)
// the VM-usage chart or a CSV of the usage series. With -sweep it runs a
// whole scenario matrix in parallel instead and reports mean ±CI per
// cell.
//
// Usage:
//
//	meryn-sim                           # paper workload, Meryn policy
//	meryn-sim -list                     # experiments + sweep axes catalogue
//	meryn-sim -policy static            # the baseline
//	meryn-sim -vc1-apps 60 -chart       # heavier load, ASCII usage chart
//	meryn-sim -trace workload.csv       # replay a trace file
//	meryn-sim -csv usage.csv            # dump usage series for plotting
//	meryn-sim -services -svc-burst 2.5  # elastic latency-SLO services demo
//	meryn-sim -serverless               # scale-to-zero functions + canary rollout demo
//	meryn-sim -chaos                    # heavy fault campaign under the auditor
//	meryn-sim -sweep default            # stock policy x load sweep
//	meryn-sim -sweep "ia=4,5,7 reps=10" -workers 8 -json sweep.json
//
// Every error exits non-zero with a one-line message on stderr; when
// -json is set the error is also written to the JSON target as
// {"error": "..."}, so machine consumers never see a half-written or
// missing result file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"meryn"
	"meryn/internal/chaos"
	"meryn/internal/core"
	"meryn/internal/exp"
	"meryn/internal/framework/serverless"
	"meryn/internal/metrics"
	"meryn/internal/report"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and
// returns the process exit code. Errors print one line to stderr; with
// -json set they are also emitted as a JSON error object.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meryn-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy    = fs.String("policy", "meryn", "resource policy: meryn or static")
		seed      = fs.Int64("seed", 1, "RNG seed")
		vc1Apps   = fs.Int("vc1-apps", 50, "applications submitted to VC1")
		vc2Apps   = fs.Int("vc2-apps", 15, "applications submitted to VC2")
		interarr  = fs.Float64("interarrival", 5, "per-stream inter-arrival time [s]")
		work      = fs.Float64("work", 1550, "application work [reference s]")
		traceIn   = fs.String("trace", "", "replay a workload trace CSV instead of the synthetic workload")
		chart     = fs.Bool("chart", false, "print the VM-usage ASCII chart")
		csvOut    = fs.String("csv", "", "write the usage series as CSV to this file")
		services  = fs.Bool("services", false, "run the elastic latency-SLO services demo scenario instead of the batch workload")
		svcLoad   = fs.Float64("svc-load", 1, "services demo: offered-load multiplier")
		svcBurst  = fs.Float64("svc-burst", 2.5, "services demo: burst amplitude (1 = no bursts)")
		svcPolicy = fs.String("svc-policy", "scaleout", "services demo: replica policy (noop or scaleout)")
		fnDemo    = fs.Bool("serverless", false, "run the scale-to-zero functions + canary rollout demo instead of the batch workload")
		fnGap     = fs.Float64("fn-gap", 240, "serverless demo: idle gap between active phases [s]")
		fnCold    = fs.Float64("fn-cold", 5, "serverless demo: instance cold-start delay [s]")
		fnConc    = fs.Float64("fn-conc", 2, "serverless demo: in-flight requests per instance")
		chaosDemo = fs.Bool("chaos", false, "run a fault campaign under the invariant auditor instead of the batch workload")
		chaosInt  = fs.String("chaos-intensity", "heavy", "chaos demo: campaign intensity (off, light or heavy)")
		chaosPol  = fs.String("chaos-policy", "spot", "chaos demo: cloud lease policy (ondemand or spot)")
		listExps  = fs.Bool("list", false, "list registered experiments and sweep axes, then exit")
		sweepSpec = fs.String("sweep", "", `run a scenario matrix instead of one run: "default" or e.g. "policy=meryn,static ia=4,5 load=50 reps=5"`)
		workers   = fs.Int("workers", 0, "parallel sweep workers (0 = all cores)")
		reps      = fs.Int("reps", 0, "seed replications per sweep cell (0 = matrix default)")
		jsonPath  = fs.String("json", "", "write sweep results as JSON to this file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "meryn-sim:", err)
		if *jsonPath != "" {
			if werr := exp.WriteJSONError(*jsonPath, err, stdout); werr != nil {
				fmt.Fprintln(stderr, "meryn-sim:", werr)
			}
		}
		return 1
	}

	if *listExps {
		printCatalog(stdout)
		return 0
	}

	// -sweep and -services select different modes with their own flag
	// sets; reject combinations that would otherwise be silently ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sweepOnly := []string{"workers", "reps", "json"}
	singleOnly := []string{"policy", "vc1-apps", "vc2-apps", "interarrival", "work", "trace", "chart", "csv", "services", "svc-load", "svc-burst", "svc-policy", "serverless", "fn-gap", "fn-cold", "fn-conc", "chaos", "chaos-intensity", "chaos-policy"}
	servicesOnly := []string{"svc-load", "svc-burst", "svc-policy"}
	fnOnly := []string{"fn-gap", "fn-cold", "fn-conc"}
	chaosOnly := []string{"chaos-intensity", "chaos-policy"}
	batchOnly := []string{"policy", "vc1-apps", "vc2-apps", "interarrival", "work", "trace"}
	if *sweepSpec == "" {
		for _, name := range sweepOnly {
			if set[name] {
				return fail(fmt.Errorf("-%s only applies with -sweep", name))
			}
		}
		if !*services {
			for _, name := range servicesOnly {
				if set[name] {
					return fail(fmt.Errorf("-%s only applies with -services", name))
				}
			}
		}
		if !*fnDemo {
			for _, name := range fnOnly {
				if set[name] {
					return fail(fmt.Errorf("-%s only applies with -serverless", name))
				}
			}
		}
		if !*chaosDemo {
			for _, name := range chaosOnly {
				if set[name] {
					return fail(fmt.Errorf("-%s only applies with -chaos", name))
				}
			}
		}
		demos := 0
		for _, on := range []bool{*services, *fnDemo, *chaosDemo} {
			if on {
				demos++
			}
		}
		if demos > 1 {
			return fail(errors.New("-services, -serverless and -chaos select different demo scenarios; pick one"))
		}
	} else {
		for _, name := range singleOnly {
			if set[name] {
				return fail(fmt.Errorf("-%s does not apply with -sweep (use the sweep spec, e.g. \"policy=static ia=4\")", name))
			}
		}
		if err := runSweep(stdout, *sweepSpec, *seed, exp.Options{Workers: *workers, Reps: *reps}, *jsonPath); err != nil {
			return fail(err)
		}
		return 0
	}

	if *services {
		for _, name := range batchOnly {
			if set[name] {
				return fail(fmt.Errorf("-%s does not apply with -services (use -svc-load/-svc-burst/-svc-policy)", name))
			}
		}
		if err := runServicesDemo(stdout, *seed, *svcPolicy, *svcLoad, *svcBurst, *chart, *csvOut); err != nil {
			return fail(err)
		}
		return 0
	}

	if *fnDemo {
		for _, name := range batchOnly {
			if set[name] {
				return fail(fmt.Errorf("-%s does not apply with -serverless (use -fn-gap/-fn-cold/-fn-conc)", name))
			}
		}
		if err := runServerlessDemo(stdout, *seed, *fnGap, *fnCold, *fnConc, *chart, *csvOut); err != nil {
			return fail(err)
		}
		return 0
	}

	if *chaosDemo {
		for _, name := range batchOnly {
			if set[name] {
				return fail(fmt.Errorf("-%s does not apply with -chaos (use -chaos-intensity/-chaos-policy)", name))
			}
		}
		if err := runChaosDemo(stdout, *seed, *chaosInt, *chaosPol, *chart, *csvOut); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := meryn.DefaultConfig()
	cfg.Seed = *seed
	switch *policy {
	case "meryn":
		cfg.Policy = meryn.PolicyMeryn
	case "static":
		cfg.Policy = meryn.PolicyStatic
	default:
		return fail(fmt.Errorf("unknown policy %q", *policy))
	}

	var wl meryn.Workload
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return fail(err)
		}
		wl, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		wl = meryn.CustomPaperWorkload(meryn.PaperWorkloadConfig{
			Apps:         *vc1Apps + *vc2Apps,
			VC1Apps:      *vc1Apps,
			Interarrival: meryn.Seconds(*interarr),
			Work:         *work,
			VMsPerApp:    1,
			VC1:          "vc1",
			VC2:          "vc2",
		})
	}

	p, err := meryn.New(cfg)
	if err != nil {
		return fail(err)
	}
	res, err := p.Run(wl)
	if err != nil {
		return fail(err)
	}
	if err := printSummary(stdout, res); err != nil {
		return fail(err)
	}
	if rows := cloudRows(p); len(rows) > 0 {
		fmt.Fprintln(stdout)
		if err := report.CloudBreakdown(rows).Render(stdout); err != nil {
			return fail(err)
		}
	}

	if err := writeUsage(stdout, res, fmt.Sprintf("%s policy", res.Policy), *chart, *csvOut); err != nil {
		return fail(err)
	}
	return 0
}

// writeUsage prints the VM-usage chart, titled after what ran, and
// writes the usage series as CSV, each when asked for.
func writeUsage(out io.Writer, res *meryn.Results, what string, chart bool, csvOut string) error {
	if chart {
		c := report.Chart{
			Title:  fmt.Sprintf("Used VMs over time (%s)", what),
			Series: []*metrics.Series{res.PrivateSeries, res.CloudSeries},
			YLabel: "used VMs",
		}
		fmt.Fprintln(out)
		if err := c.Render(out); err != nil {
			return err
		}
	}
	if csvOut != "" {
		if err := writeCSV(csvOut, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nusage series written to %s\n", csvOut)
	}
	return nil
}

func writeCSV(path string, res *meryn.Results) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return report.SeriesCSV(f, sim.Seconds(10), res.PrivateSeries, res.CloudSeries)
}

// printCatalog enumerates the registered experiments and the axes the
// two sweep grids accept, so valid -sweep values need no source dive.
func printCatalog(out io.Writer) {
	fmt.Fprintln(out, "Experiments (run with meryn-bench -exp <name>, or meryn-sim -sweep/-services):")
	for _, e := range exp.All() {
		fmt.Fprintf(out, "  %-12s %s\n", e.Name, e.Artifact)
	}
	fmt.Fprintln(out, "\nSweep axes (-sweep \"key=v1,v2 ...\"):")
	fmt.Fprintln(out, "  policy        meryn | static")
	fmt.Fprintln(out, "  interarrival  per-stream arrival gap [s] (alias: ia)")
	fmt.Fprintln(out, "  cluster       total private VMs, split across the two VCs")
	fmt.Fprintln(out, "  load          applications submitted to VC1")
	fmt.Fprintln(out, "  reps          seed replications per cell")
	fmt.Fprintln(out, "  seed          base seed for per-run seed derivation")
	fmt.Fprintln(out, "  name          label for reports and JSON")
	fmt.Fprintln(out, "\nServices grid axes (meryn-bench -exp services; single run: meryn-sim -services):")
	m := exp.DefaultServicesMatrix()
	fmt.Fprintf(out, "  load   offered-load multipliers     (default %v)\n", m.Loads)
	fmt.Fprintf(out, "  policy replica policies             (default %v)\n", m.Policies)
	fmt.Fprintf(out, "  burst  burst amplitude factors      (default %v)\n", m.Bursts)
	fmt.Fprintf(out, "  reps   seed replications per cell   (default %d)\n", m.Reps)
	sm := exp.DefaultServerlessMatrix()
	fmt.Fprintln(out, "\nServerless grid axes (meryn-bench -exp serverless; single run: meryn-sim -serverless):")
	fmt.Fprintf(out, "  gap    idle gaps between active phases [s]  (default %v)\n", sm.IdleGaps)
	fmt.Fprintf(out, "  cold   instance boot delays [s]             (default %v)\n", sm.ColdStarts)
	fmt.Fprintf(out, "  conc   concurrency targets per instance     (default %v)\n", sm.Concs)
	fmt.Fprintf(out, "  reps   seed replications per cell           (default %d)\n", sm.Reps)
	cm := exp.DefaultChaosMatrix()
	fmt.Fprintln(out, "\nChaos grid axes (meryn-bench -exp chaos; single run: meryn-sim -chaos):")
	fmt.Fprintf(out, "  intensity campaign intensity          (default %v)\n", cm.Intensities)
	fmt.Fprintf(out, "  policy    cloud lease policy          (default %v)\n", cm.Policies)
	fmt.Fprintf(out, "  reps      seed replications per cell  (default %d)\n", cm.Reps)
}

// runServicesDemo executes one cell of the services scenario and prints
// the run summary with the per-type breakdown.
func runServicesDemo(out io.Writer, seed int64, policy string, load, burst float64, chart bool, csvOut string) error {
	if policy != exp.ReplicaPolicyNoop && policy != exp.ReplicaPolicyScaleOut {
		return fmt.Errorf("unknown replica policy %q (want noop or scaleout)", policy)
	}
	s := exp.ServiceScenario(exp.ServiceScenarioConfig{
		Seed: seed, Policy: policy, LoadMult: load, BurstAmp: burst,
	})
	res, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "services demo: policy=%s load=%g burst=%g seed=%d\n\n", policy, load, burst, seed)
	if err := printSummary(out, res); err != nil {
		return err
	}
	fmt.Fprintf(out, "service elasticity: scale-outs=%d scale-ins=%d bid-reclaims=%d\n",
		res.Counters.ReplicaScaleOuts.Count, res.Counters.ReplicaScaleIns.Count,
		res.Counters.ReplicaReclaims.Count)
	return writeUsage(out, res, "services demo", chart, csvOut)
}

// runServerlessDemo executes one cell of the serverless scenario — four
// scale-to-zero functions with idle-gap traffic, a mid-run canary
// rollout (deploy v2, split 90/10, promote) and a batch stream beside
// them — and prints the run summary, the scale-to-zero tallies and the
// per-function revision table (traffic weights, routed requests, cold
// starts).
func runServerlessDemo(out io.Writer, seed int64, gap, cold, conc float64, chart bool, csvOut string) error {
	var plat *core.Platform
	s := exp.ServerlessScenario(exp.ServerlessScenarioConfig{
		Seed: seed, IdleGapS: gap, ColdStartS: cold, ConcTarget: conc, Canary: true,
	})
	inner := s.Setup
	s.Setup = func(p *core.Platform) {
		if inner != nil {
			inner(p)
		}
		plat = p
	}
	res, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serverless demo: gap=%gs cold=%gs conc=%g seed=%d\n\n", gap, cold, conc, seed)
	if err := printSummary(out, res); err != nil {
		return err
	}
	fnAgg := metrics.AggregateRecords(res.Ledger.ByType(string(workload.TypeServerless)))
	fmt.Fprintf(out, "scale-to-zero: activations=%d zero-scales=%d cold-starts=%d (%.0f s boot delay charged) served=%.0f metered=%.0f units\n",
		fnAgg.Activations, fnAgg.ZeroScales, fnAgg.ColdStarts, fnAgg.ColdStartDelayS, fnAgg.Served, fnAgg.Metered)
	if plat != nil {
		if cm, ok := plat.CM("fn1"); ok {
			if fw, ok := cm.Framework().(*serverless.Serverless); ok {
				fmt.Fprintln(out, "\nrevisions (canary: v2 deployed t=900, split 90/10 t=960, promoted t=1800):")
				t := report.Table{Headers: []string{"function", "revision", "weight", "requests", "cold starts"}}
				for _, rec := range res.Ledger.ByType(string(workload.TypeServerless)) {
					revs, err := fw.Revisions(rec.ID)
					if err != nil {
						continue
					}
					for _, rv := range revs {
						t.AddRow(rec.ID, rv.Name, fmt.Sprintf("%d", rv.Weight),
							fmt.Sprintf("%.0f", rv.Requests), fmt.Sprintf("%d", rv.ColdStarts))
					}
				}
				if err := t.Render(out); err != nil {
					return err
				}
			}
		}
	}
	return writeUsage(out, res, "serverless demo", chart, csvOut)
}

// runChaosDemo runs one chaos campaign cell — the spot-style bursting
// scenario with a fault plan armed and the auditor at a 10 s cadence —
// and prints the run summary plus the fired-fault tallies. Reaching the
// tallies at all means every audit barrier passed (violations panic).
func runChaosDemo(out io.Writer, seed int64, intensity, policy string, chart bool, csvOut string) error {
	switch intensity {
	case exp.ChaosOff, exp.ChaosLight, exp.ChaosHeavy:
	default:
		return fmt.Errorf("unknown chaos intensity %q (want off, light or heavy)", intensity)
	}
	if policy != exp.SpotPolicyOnDemand && policy != exp.SpotPolicySpot {
		return fmt.Errorf("unknown chaos lease policy %q (want ondemand or spot)", policy)
	}
	var inj *chaos.Injector
	s := exp.ChaosScenario(exp.ChaosScenarioConfig{
		Seed: seed, Policy: policy, Intensity: intensity,
		Observe: func(i *chaos.Injector) { inj = i },
	})
	res, err := s.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos demo: intensity=%s policy=%s seed=%d\n\n", intensity, policy, seed)
	if err := printSummary(out, res); err != nil {
		return err
	}
	if inj == nil {
		fmt.Fprintln(out, "campaign: none (intensity off — auditor-only baseline)")
	} else {
		fmt.Fprintf(out, "campaign: %d planned events; fired: crashes=%d outages=%d storms=%d revocations=%d shocks=%d skipped=%d\n",
			len(inj.Plan().Events), inj.Crashes, inj.Outages, inj.Storms,
			inj.Revocations, inj.Shocks, inj.Skipped)
	}
	fmt.Fprintf(out, "audit: %d invariant checks passed (violations would have panicked the run)\n", res.AuditChecks)
	return writeUsage(out, res, "chaos demo", chart, csvOut)
}

// runSweep expands, executes and reports a scenario matrix.
func runSweep(out io.Writer, spec string, seed int64, opt exp.Options, jsonPath string) error {
	if spec == "default" {
		spec = ""
	}
	m, err := exp.ParseMatrix(spec)
	if err != nil {
		return err
	}
	if m.BaseSeed == 0 { // spec's seed= wins over -seed
		m.BaseSeed = seed
	}
	res, err := m.Sweep(opt)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Render())
	if jsonPath != "" {
		b, err := res.JSON()
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if jsonPath == "-" {
			out.Write(b)
		} else if err := os.WriteFile(jsonPath, b, 0o644); err != nil {
			return err
		} else {
			fmt.Fprintf(out, "\nsweep JSON written to %s\n", jsonPath)
		}
	}
	return nil
}

// cloudRows maps a platform's providers into the cloud-breakdown table
// rows, empty when no provider saw any activity.
func cloudRows(p *meryn.Platform) []report.CloudProviderStats {
	var rows []report.CloudProviderStats
	active := false
	for _, prov := range p.Clouds {
		rows = append(rows, report.CloudProviderStats{
			Name:        prov.Name(),
			Launches:    prov.Launches.Count,
			Revocations: prov.Revocations.Count,
			Spend:       prov.TotalSpend,
			SpotSpend:   prov.SpotSpend,
		})
		if prov.Launches.Count > 0 || prov.TotalSpend > 0 {
			active = true
		}
	}
	if !active {
		return nil
	}
	return rows
}

func printSummary(out io.Writer, res *meryn.Results) error {
	agg := meryn.AggregateAll(res)
	fmt.Fprintf(out, "policy: %s\n", res.Policy)
	fmt.Fprintf(out, "applications: %d (deadlines missed: %d)\n", agg.N, agg.DeadlinesMissed)
	fmt.Fprintf(out, "completion: %.0f s\n", agg.CompletionTime)
	fmt.Fprintf(out, "mean exec: %.0f s  mean turnaround: %.0f s  mean processing: %.1f s\n",
		agg.MeanExecTime, agg.MeanTurnaround, agg.MeanProcessing)
	fmt.Fprintf(out, "cost: %.0f units  revenue: %.0f units  profit: %.0f units\n",
		agg.TotalCost, agg.TotalRevenue, agg.TotalProfit)
	fmt.Fprintf(out, "placements: local=%d vc=%d cloud=%d\n",
		agg.PlacementCounts[metrics.PlacementLocal],
		agg.PlacementCounts[metrics.PlacementVC],
		agg.PlacementCounts[metrics.PlacementCloud])
	fmt.Fprintf(out, "peaks: private=%d cloud=%d VMs\n",
		int(res.PrivateSeries.Max()), int(res.CloudSeries.Max()))
	fmt.Fprintf(out, "protocol: bid-rounds=%d transfers=%d leases=%d suspensions=%d resumes=%d\n",
		res.Counters.BidRounds.Count, res.Counters.VMTransfers.Count,
		res.Counters.CloudLeases.Count, res.Counters.Suspensions.Count,
		res.Counters.Resumes.Count)
	fmt.Fprintf(out, "cloud spend (provider charges): %.0f units\n", res.CloudSpend)
	if res.Counters.SpotLeases.Count > 0 || res.Counters.SpotRevocations.Count > 0 {
		fmt.Fprintf(out, "spot: leases=%d revocations=%d fallbacks=%d spend=%.0f units\n",
			res.Counters.SpotLeases.Count, res.Counters.SpotRevocations.Count,
			res.Counters.SpotFallbacks.Count, res.SpotSpend)
	}

	for _, vc := range res.Ledger.VCs() {
		a := meryn.AggregateVC(res, vc)
		fmt.Fprintf(out, "  %s: apps=%d mean-exec=%.0fs mean-cost=%.0f local=%d vc=%d cloud=%d\n",
			vc, a.N, a.MeanExecTime, a.MeanCost,
			a.PlacementCounts[metrics.PlacementLocal],
			a.PlacementCounts[metrics.PlacementVC],
			a.PlacementCounts[metrics.PlacementCloud])
	}

	// Mixed-framework runs get the per-type economics table.
	if len(res.Ledger.Types()) > 1 {
		fmt.Fprintln(out)
		if err := report.BreakdownByType(res.Ledger.All()).Render(out); err != nil {
			return err
		}
	}
	return nil
}
