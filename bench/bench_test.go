package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
)

// merynd is the daemon binary the control-plane tests run, built once.
var merynd string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	merynd = filepath.Join(dir, "merynd")
	if out, err := exec.Command("go", "build", "-o", merynd, "meryn/cmd/merynd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building merynd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// timeUnits are the units whose values are wall-clock measurements;
// such a metric must be measured on every workload, never reported as a
// constant 0.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true}

func loadTestSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram checks BENCHMARK.json against the contract it is
// run under and against the metrics this program emits.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadTestSpec(t)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths %q, want [bench]", s.Paths)
	}
	if want := []string{"bash", "bench/run.sh"}; strings.Join(s.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command %q, want %q", s.Command, want)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	var names []string
	for _, w := range s.Workloads {
		name("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("workloads %v, program runs %v", names, allWorkloads)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, ms []SpecMetric, decls []metricDecl, bounded bool) {
		if len(ms) != len(decls) {
			t.Errorf("%d %s metrics declared, program emits %d", len(ms), kind, len(decls))
		}
		for i, m := range ms {
			name(kind, m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: bad unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s %s: better %q, want higher or lower", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present=%v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
			if i < len(decls) && (decls[i].name != m.Name || decls[i].unit != m.Unit || decls[i].better != m.Better) {
				t.Errorf("%s metric %d: declared %s/%s/%s, program emits %s/%s/%s", kind, i,
					m.Name, m.Unit, m.Better, decls[i].name, decls[i].unit, decls[i].better)
			}
		}
	}
	check("end-to-end", s.EndToEnd, endToEnd, true)
	check("per-layer", s.PerLayer, perLayer, false)

	var setup *SpecMetric
	var e2eNames []string
	maxBound := 0.0
	for i, m := range s.EndToEnd {
		if m.Name == "setup_s" {
			setup = &s.EndToEnd[i]
		}
		if m.Bound != nil {
			maxBound = math.Max(maxBound, *m.Bound)
		}
		e2eNames = append(e2eNames, m.Name)
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound == nil || *setup.Bound != maxBound {
		t.Errorf("setup_s must be declared in s, lower, with the largest bound")
	}
	for _, d := range perLayer {
		if len(d.moves) == 0 || len(d.on) == 0 {
			t.Errorf("per-layer %s: names no end-to-end metric or workload", d.name)
		}
		for _, e := range d.moves {
			if !contains(e2eNames, e) {
				t.Errorf("per-layer %s moves unknown end-to-end metric %s", d.name, e)
			}
		}
		for _, w := range d.on {
			if !contains(allWorkloads, w) {
				t.Errorf("per-layer %s names unknown workload %s", d.name, w)
			}
		}
		if timeUnits[d.unit] && len(d.on) != len(allWorkloads) {
			t.Errorf("per-layer %s is a time (%s) but is measured on %v only; it would read a constant 0 elsewhere", d.name, d.unit, d.on)
		}
	}
}

// runQuick runs one workload at -quick sizes and returns its exit code
// and parsed result line.
func runQuick(t *testing.T, o options) (int, Result, string) {
	t.Helper()
	o.quick = true
	if o.seconds == 0 {
		o.seconds = 0.2
	}
	if o.seed == 0 {
		o.seed = 3
	}
	if o.work == "" {
		o.work = t.TempDir()
	}
	if o.merynd == "" {
		o.merynd = merynd
	}
	var stdout, stderr bytes.Buffer
	code := execute(context.Background(), o, &stdout, &stderr)
	var res Result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("last stdout line is not a result: %q: %v\nstderr:\n%s", last, err, stderr.String())
		}
	}
	return code, res, stderr.String()
}

// TestQuickWorkloads smoke-tests every workload at tiny sizes, untraced
// and traced: every run passes its checks and prints exactly the
// declared metrics with their units.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			t.Run(w+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				code, res, stderr := runQuick(t, options{workload: w, trace: traced})
				if code != 0 || !res.Correct || res.Failed != 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stderr)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted %d", res.Attempted)
				}
				decls := endToEnd
				if traced {
					decls = perLayer
				}
				if len(res.Metrics) != len(decls) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s not printed", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// runDirsLeft lists the per-invocation scratch directories left in work.
func runDirsLeft(t *testing.T, work string) []string {
	t.Helper()
	ents, err := os.ReadDir(work)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "run-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestTamperedChecksFail proves a broken result fails the run: a
// recovered state that does not match the pre-crash state, and a rep or
// re-run digest that does not match the first. The control-plane case
// also proves that no merynd child and no state directory outlives the
// failing run.
func TestTamperedChecksFail(t *testing.T) {
	cases := []struct{ workload, tamper string }{
		{wControl, "recovery"},
		{wScale, "digest"},
		{wPaper, "digest"},
		{wMix, "digest"},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.tamper, func(t *testing.T) {
			work := t.TempDir()
			var pids []int
			code, res, stderr := runQuick(t, options{workload: c.workload, tamper: c.tamper, work: work,
				onDaemon: func(pid int) { pids = append(pids, pid) }})
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("tampered %s passed: exit %d, result %+v\n%s", c.tamper, code, res, stderr)
			}
			if c.workload == wControl && len(pids) == 0 {
				t.Fatal("no merynd was started")
			}
			for _, pid := range pids {
				if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("merynd pid %d still exists after the run (kill 0: %v)", pid, err)
				}
			}
			if left := runDirsLeft(t, work); len(left) > 0 {
				t.Errorf("scratch directories survive the run: %v", left)
			}
		})
	}
}

// TestDaemonThatDiesCleansUp runs the control plane against a "daemon"
// that exits at once: the run errors out without a result, and leaves no
// scratch directory behind.
func TestDaemonThatDiesCleansUp(t *testing.T) {
	work := t.TempDir()
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false binary")
	}
	code, res, _ := runQuick(t, options{workload: wControl, work: work, merynd: falseBin})
	if code == 0 || res.Attempted != 0 {
		t.Fatalf("exit %d, result %+v; want a failure without a result", code, res)
	}
	if left := runDirsLeft(t, work); len(left) > 0 {
		t.Errorf("scratch directories survive the run: %v", left)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.1
	lower := SpecMetric{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: &bound}
	higher := SpecMetric{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: &bound}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		m      SpecMetric
		p, c   []float64
		expect string
	}{
		{lower, parent, scaled(parent, 0.8), "improved"},
		{lower, parent, scaled(parent, 1.2), "regressed"},
		{lower, parent, scaled(parent, 1.02), "unchanged"},
		{higher, parent, scaled(parent, 1.2), "improved"},
		{higher, parent, scaled(parent, 0.8), "regressed"},
		{lower, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, parent, "unresolved"},
	}
	for i, c := range cases {
		if got := judge("w", c.m, bound, c.p, c.c).verdict; got != c.expect {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.expect)
		}
	}
}

func TestChangedCounts(t *testing.T) {
	s := loadTestSpec(t)
	rec := func(seed int64, events float64) Record {
		return Record{Host: Host{Workload: wPaper, Seed: seed, Trace: true},
			Result: Result{Metrics: map[string]Metric{"sim.events_per_item": {Value: events, Unit: "count"}}}}
	}
	same := changedCounts(s, []Record{rec(1, 3874)}, []Record{rec(1, 3874), rec(2, 10)})
	if len(same) != 1 || !strings.Contains(same[0], "none changed") {
		t.Errorf("unchanged counts reported as %q", same)
	}
	diff := changedCounts(s, []Record{rec(1, 3874)}, []Record{rec(1, 390)})
	if len(diff) != 1 || !strings.Contains(diff[0], "sim.events_per_item") {
		t.Errorf("changed count reported as %q", diff)
	}
}

// TestParseTraces attributes samples of `go tool pprof -traces` output
// to the innermost meryn package on each stack.
func TestParseTraces(t *testing.T) {
	out := `File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             meryn/internal/sim.(*Engine).Step
             main.runPaper
-----------+-------------------------------------------------------
      10ms   meryn/internal/core.(*ClusterManager).ComputeBid
             meryn/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	shares, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.6, "core": 0.2, "runtime": 0.2}
	for p, v := range shares {
		if math.Abs(v-want[p]) > 1e-9 {
			t.Errorf("share %s = %g, want %g", p, v, want[p])
		}
	}
}
