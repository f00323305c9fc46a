package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// runCompare judges a change against its parent from two -out files,
// each holding repeated runs of the same benchmark. For every
// (end-to-end metric, workload) it prints the medians, quartiles and
// pair wins, and a verdict:
//
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ, in the better
//     direction, by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the parent's own spread (IQR over median) is wider
//     than the bound, and not every change run beats every parent run;
//   - unchanged: otherwise.
//
// Pairs are the i-th runs of each side for a workload. Traced records
// are compared on their count-valued per-layer metrics, which must
// repeat exactly: every one that changed is listed.
func runCompare(specPath, parentPath, changePath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows := compareRecords(spec, parent, change)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange wins\tbound\tverdict")
	regressed := false
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%.0f%%\t%s\n",
			r.workload, r.metric, r.unit, r.parent[1], r.parent[0], r.parent[2],
			r.change[1], r.change[0], r.change[2], r.wins, r.pairs, r.bound*100, r.verdict)
		if r.verdict == "regressed" {
			regressed = true
		}
	}
	tw.Flush()
	for _, line := range changedCounts(spec, parent, change) {
		fmt.Fprintln(stdout, line)
	}
	if regressed {
		return 1
	}
	return 0
}

// readRecords loads an -out file: one Record per line.
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type compareRow struct {
	workload, metric, unit string
	parent, change         [3]float64 // q1, median, q3
	wins, pairs            int
	bound                  float64
	verdict                string
}

// valuesOf collects one metric's values over the untraced records of a
// workload, in file order.
func valuesOf(recs []Record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Host.Workload != workload || r.Host.Trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareRecords(spec *Spec, parent, change []Record) []compareRow {
	var rows []compareRow
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := valuesOf(parent, w.Name, m.Name), valuesOf(change, w.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			rows = append(rows, judge(w.Name, m, bound, p, c))
		}
	}
	return rows
}

// judge applies the verdict rule to one (metric, workload).
func judge(workload string, m SpecMetric, bound float64, p, c []float64) compareRow {
	r := compareRow{workload: workload, metric: m.Name, unit: m.Unit, bound: bound}
	pq1, pq3 := quartiles(p)
	cq1, cq3 := quartiles(c)
	r.parent = [3]float64{pq1, median(p), pq3}
	r.change = [3]float64{cq1, median(c), cq3}
	higher := m.Better == "higher"
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	r.pairs = min(len(p), len(c))
	for i := 0; i < r.pairs; i++ {
		if better(c[i], p[i]) {
			r.wins++
		}
	}
	pm, cm := r.parent[1], r.change[1]
	worse := (cm - pm) / pm // relative change in the worse direction
	if higher {
		worse = (pm - cm) / pm
	}
	spread := (pq3 - pq1) / math.Abs(pm)
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case float64(r.wins) >= 0.9*float64(r.pairs) && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		r.verdict = "improved"
	case worse > bound:
		r.verdict = "regressed"
	case spread > bound && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// changedCounts lists every count-valued per-layer metric that differs
// between traced records of the two sides run on the same workload and
// seed.
func changedCounts(spec *Spec, parent, change []Record) []string {
	counts := map[string]bool{}
	for _, m := range spec.PerLayer {
		if m.Unit == "count" {
			counts[m.Name] = true
		}
	}
	type key struct {
		workload string
		seed     int64
	}
	collect := func(recs []Record) map[key]map[string]Metric {
		out := map[key]map[string]Metric{}
		for _, r := range recs {
			if r.Host.Trace {
				out[key{r.Host.Workload, r.Host.Seed}] = r.Result.Metrics
			}
		}
		return out
	}
	p, c := collect(parent), collect(change)
	var lines []string
	compared := 0
	for k, pm := range p {
		cm, ok := c[k]
		if !ok {
			continue
		}
		compared++
		for name, pv := range pm {
			if cv, ok := cm[name]; ok && counts[name] && cv.Value != pv.Value {
				lines = append(lines, fmt.Sprintf("count changed: %s seed %d %s: parent %.6g, change %.6g",
					k.workload, k.seed, name, pv.Value, cv.Value))
			}
		}
	}
	sort.Strings(lines)
	if len(lines) == 0 && compared > 0 {
		lines = append(lines, fmt.Sprintf("per-layer counts: none changed over %d traced (workload, seed) pairs", compared))
	}
	return lines
}
