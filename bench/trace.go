package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out
// when the benchmark ends. A nil *tracer records nothing, so the
// untraced run times its calls through the same code path.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call at a layer boundary. Spans of one platform run
// or one control-plane session share Trace.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span. Its start time is taken whether or not a
// tracer records it, because every caller also uses the duration.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(trace, name string, parent int64) spanRef {
	r := spanRef{t: t, parent: parent, trace: trace, name: name}
	if t != nil {
		r.id = t.next.Add(1)
	}
	r.start = time.Now()
	return r
}

// end closes the span and returns its duration.
func (r spanRef) end() time.Duration {
	end := time.Now()
	d := end.Sub(r.start)
	if r.t != nil {
		r.t.add(span{ID: r.id, Parent: r.parent, Trace: r.trace, Name: r.name,
			Start: int64(r.start.Sub(r.t.t0)), End: int64(end.Sub(r.t.t0))})
	}
	return d
}

// record adds a span whose interval was measured elsewhere (the server
// side of a request, read from the daemon's access log).
func (t *tracer) record(trace, name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.next.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanStats is the per-name aggregate written to layers.json: how often
// a boundary was crossed, its total time, and its self time (duration
// minus the part of the interval its child spans cover).
type spanStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary aggregates the recorded spans by name.
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range t.spans {
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(self) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write stores spans.json in dir.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(filepath.Join(dir, "spans.json"), t.spans)
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// cpuProfile profiles the calling process until stop is called.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (c *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return c.f.Close()
}

// cpuPackages are the repository modules the cpu.* per-layer metrics
// attribute samples to; any other meryn package lands in cpu.other and
// samples with no meryn frame at all in cpu.runtime.
var cpuPackages = []string{
	"sim", "core", "framework", "workload", "metrics", "vmm", "cloud",
	"sla", "exp", "chaos", "stats", "cluster", "api", "durable", "telemetry",
}

var merynFrame = regexp.MustCompile(`^meryn/internal/([a-z]+)`)

// cpuShares reads a CPU profile with `go tool pprof -traces` and returns
// each package's share of the sampled CPU time, attributing a sample to
// the innermost meryn/internal/<pkg> frame on its stack.
func cpuShares(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces attributes the sample blocks of `pprof -traces` output.
// Each block is separated by a dashed line; its first line carries the
// sample value followed by the innermost frame, and each further line
// one caller frame.
func parseTraces(out []byte) (map[string]float64, error) {
	known := map[string]bool{}
	for _, p := range cpuPackages {
		known[p] = true
	}
	by := map[string]float64{}
	var total float64
	var value float64
	var pkg string
	inBlock := false
	flush := func() {
		if inBlock && value > 0 {
			if pkg == "" {
				pkg = "runtime"
			}
			by[pkg] += value
			total += value
		}
		inBlock, value, pkg = false, 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		frame := strings.TrimSpace(line)
		if value == 0 {
			fields := strings.Fields(frame)
			if len(fields) < 2 {
				continue
			}
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value = v
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		if pkg == "" {
			if m := merynFrame.FindStringSubmatch(frame); m != nil {
				pkg = "other"
				if known[m[1]] {
					pkg = m[1]
				}
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A profile too short to hold a sample (the -quick sizes) reports
	// every share as 0.
	shares := map[string]float64{}
	for _, p := range append(append([]string{}, cpuPackages...), "other", "runtime") {
		if total > 0 {
			shares[p] = by[p] / total
		} else {
			shares[p] = 0
		}
	}
	return shares, nil
}

// parseSampleValue reads a pprof duration such as "10ms", "1.50s" or
// "250us" as seconds.
func parseSampleValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}, {"m", 60}, {"h", 3600}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("pprof sample value %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof sample value %q has no unit", s)
}
