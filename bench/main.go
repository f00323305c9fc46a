// Command bench is the repository's benchmark: four workloads that
// drive the Meryn platform the two ways users meet it — as a simulator
// replaying the paper's placement protocol, and as the merynd daemon
// negotiating SLAs over HTTP — and report end-to-end and per-layer
// metrics. See README.md for the workloads and metrics.
//
// One invocation runs one workload and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics:
//
//	bash bench/run.sh --workload paper-burst --seed 1 --seconds 15 --trace 0
//
// With --trace 1 the run is repeated with spans, a CPU profile and
// per-layer probes, and the metrics are the per-layer ones; spans.json
// and layers.json are written under -trace-dir. -compare judges two
// sets of runs recorded with -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	runs     int
	work     string // directory for scratch files (state dirs, profiles)
	merynd   string // daemon binary for the control-plane workload
	traceDir string
	spec     string
	out      string

	// tamper makes a correctness check see corrupted data; tests use it
	// to prove a broken result fails the run.
	tamper string
	// onDaemon receives the PID of every merynd child started; tests use
	// it to prove no child outlives the run.
	onDaemon func(pid int)
}

// workloadDef binds a workload name to its driver.
type workloadDef struct {
	name string
	run  func(rc *runCtx) (*outcome, error)
}

var workloadDefs = []workloadDef{
	{wPaper, runPaper},
	{wScale, runScale},
	{wMix, runMix},
	{wControl, runControl},
}

// runCtx is what a workload driver receives.
type runCtx struct {
	ctx     context.Context
	opts    options
	tr      *tracer // nil in the untraced run
	workDir string  // removed when the invocation ends
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

// outcome is what a workload driver measured and checked.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	detail    map[string]any    // extra per-layer detail for layers.json
	sizes     map[string]any    // run sizes, recorded with the host
	checks    map[string]string // values the traced repetition must reproduce
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		detail: map[string]any{},
		sizes:  map[string]any{},
		checks: map[string]string{},
	}
}

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of every run's standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Host records where and how a result was measured.
type Host struct {
	Cores      int            `json:"cores"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu"`
	GoVersion  string         `json:"go_version"`
	OS         string         `json:"os"`
	Revision   string         `json:"revision"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Quick      bool           `json:"quick"`
	Sizes      map[string]any `json:"sizes,omitempty"`
	Start      string         `json:"start"`
}

// Record is one line of an -out file: a result with its host.
type Record struct {
	Host   Host   `json:"host"`
	Result Result `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(allWorkloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each measured phase runs, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: repeat the run traced and report per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes: a smoke test of the workload, not a measurement")
	fs.IntVar(&o.runs, "runs", 1, "run the workload this many times, seeds seed, seed+1, ...")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for scratch files")
	fs.StringVar(&o.merynd, "merynd", "", "merynd binary (control-plane workload)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "where the traced run writes spans.json and layers.json (default <work>/trace/<workload>)")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark declaration, for -compare bounds")
	fs.StringVar(&o.out, "out", "", "append each run's host and result, one JSON line per run, to this file")
	fs.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent.jsonl change.jsonl")
			return 2
		}
		return runCompare(o.spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 || math.IsInf(o.seconds, 0) || math.IsNaN(o.seconds) || o.runs < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and -runs at least 1")
		return 2
	}
	// A signal cancels the run so the control plane can stop its
	// daemons; a simulation cannot be interrupted mid-run, so the process
	// exits on its own if the run has not returned shortly after.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		time.Sleep(5 * time.Second)
		fmt.Fprintln(stderr, "bench: interrupted")
		os.Exit(130)
	}()
	code := 0
	for i := 0; i < o.runs; i++ {
		ri := o
		ri.seed = o.seed + int64(i)
		if c := execute(ctx, ri, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// execute runs one workload once (twice with tracing) and prints its
// result. It returns the process exit code: 0 only when every operation
// succeeded and every correctness check held.
func execute(ctx context.Context, o options, stdout, stderr io.Writer) int {
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == o.workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	host := hostInfo(o)
	// Each pass gets its own scratch directory: the traced repetition
	// must not find the untraced pass's state dirs or address files.
	pass := func(name string, tr *tracer) (*outcome, error) {
		dir := filepath.Join(workDir, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		return def.run(&runCtx{ctx: ctx, opts: o, tr: tr, workDir: dir})
	}
	out, err := pass("untraced", nil)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	metrics := out.e2e
	decls := endToEnd
	attempted, failed, failures := out.attempted, out.failed, out.failures
	if o.trace {
		tr := newTracer()
		traced, err := pass("traced", tr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s (traced): %v\n", o.workload, err)
			return 1
		}
		attempted += traced.attempted
		failed += traced.failed
		failures = append(failures, traced.failures...)
		for k, v := range out.checks {
			if traced.checks[k] != v {
				failed++
				failures = append(failures, fmt.Sprintf("traced run does not reproduce %s: %s, untraced %s", k, traced.checks[k], v))
			}
		}
		metrics = traced.layer
		for k, v := range out.layer {
			if strings.HasPrefix(k, "runtime.") {
				// Allocation counts come from the untraced run: the
				// tracer allocates spans of its own.
				metrics[k] = v
			}
		}
		metrics["trace.overhead_share"] = traced.e2e["latency_ms"]/out.e2e["latency_ms"] - 1
		if err := writeTrace(o, tr, out, traced, metrics); err != nil {
			fmt.Fprintln(stderr, "bench: writing trace:", err)
			return 1
		}
		decls = perLayer
	}
	host.Sizes = out.sizes

	res := Result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	for _, d := range decls {
		v, ok := metrics[d.name]
		if !ok && !contains(d.on, o.workload) && d.on != nil {
			v, ok = 0, true // the workload never enters this layer
		}
		if !ok || math.IsNaN(v) {
			res.Correct = false
			failures = append(failures, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a failed operation's latency
		}
		res.Metrics[d.name] = Metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		failures = append(failures, "no operation was attempted")
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "bench: FAIL:", f)
	}
	printSummary(stderr, o, res)
	if o.out != "" {
		if err := appendRecord(o.out, Record{Host: host, Result: res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host: %s\n", hostLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeTrace stores spans.json and layers.json for a traced run.
func writeTrace(o options, tr *tracer, untraced, traced *outcome, metrics map[string]float64) error {
	dir := o.traceDir
	if dir == "" {
		dir = filepath.Join(o.work, "trace", o.workload)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(dir); err != nil {
		return err
	}
	overhead := map[string]float64{}
	for k, v := range traced.e2e {
		if u := untraced.e2e[k]; u != 0 {
			overhead[k] = v/u - 1
		}
	}
	return writeJSON(filepath.Join(dir, "layers.json"), map[string]any{
		"workload":            o.workload,
		"seed":                o.seed,
		"metrics":             metrics,
		"spans":               tr.summary(),
		"detail":              traced.detail,
		"untraced_end_to_end": untraced.e2e,
		"traced_end_to_end":   traced.e2e,
		"trace_overhead":      overhead,
	})
}

func printSummary(w io.Writer, o options, res Result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "bench: %s seed=%d correct=%v attempted=%d failed=%d\n", o.workload, o.seed, res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo describes the machine and build a result was measured on.
func hostInfo(o options) Host {
	h := Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Revision:   "unknown",
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Quick:      o.quick,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Revision += "+modified"
		}
	}
	return h
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
