package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"meryn/internal/api"
	"meryn/internal/core"
	"meryn/internal/durable"
	"meryn/internal/telemetry"
)

// The control-plane workload drives a real merynd over HTTP in virtual
// mode with a durable state directory: HTTP, then journal append and
// fsync, then the session apply and settle, for every request. It runs
// rounds of
//
//  1. an open loop on one long-lived daemon: one second of sessions due
//     at a fixed rate from two load goroutines, each on its own
//     keep-alive connection; a session is submit, accept, status read,
//     and every tenth an event-log read;
//  2. a closed-loop burst on a daemon started for it: one client
//     submitting and accepting as fast as the daemon answers;
//
// and then a crash: the long-lived daemon's state is read, the daemon
// killed with SIGKILL and restarted on the same directory, and the state
// read again.
//
// Alternating the loops spreads both measurements over the whole run,
// across the host's fast and slow spells. Each burst starts on an empty
// daemon because a session's cost grows with the history the daemon
// holds (every 64 records it rewrites the whole history): on the
// long-lived daemon, bursts late in the run were three times slower than
// early ones, and the throughput read off them spread by 9-24% over 10
// runs. The closed loop has one client. The daemon serialises
// state-changing requests, so a second client added only about 7%
// throughput here, but it kept both cores busy, and the rate then
// tracked whatever else the host ran (31% vs 13% spread over paired
// runs).
//
// The simulations never touch this path.

const (
	openRate     = 100.0 // open-loop sessions due per second
	loadClients  = 2     // open-loop goroutines, one connection each
	eventsEvery  = 10    // every tenth open-loop session reads the event log
	lateAfter    = time.Millisecond
	healthPoll   = 200 * time.Microsecond
	startTimeout = 60 * time.Second
)

// controlSizes derives the run's fixed amount of work from --seconds, so
// both commits of a comparison do identical work.
type controlSizes struct {
	rounds, open, closed int // open and closed: sessions per round
	rate                 float64
}

func sizesFor(o options) controlSizes {
	if o.quick {
		// 40 open-loop sessions journal 80 records: enough for one
		// snapshot, so every durable metric is measured.
		return controlSizes{rounds: 2, open: 20, closed: 10, rate: 400}
	}
	return controlSizes{
		rounds: max(1, int(math.Round(o.seconds*0.6))),
		open:   int(openRate), // one second of schedule
		closed: 300,
		rate:   openRate,
	}
}

// daemon is one merynd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan struct{} // closed once the process has been reaped
}

// startDaemon execs merynd on stateDir and returns once /healthz answers
// 200, with the time that took (exec through healthy).
func startDaemon(rc *runCtx, name, stateDir string, extra ...string) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(rc.workDir, name+".addr")
	logPath := filepath.Join(rc.workDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state-dir", stateDir,
		"-seed", strconv.FormatInt(rc.opts.seed, 10)}, extra...)
	cmd := exec.Command(rc.opts.merynd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, log: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting merynd: %w", err)
	}
	if rc.opts.onDaemon != nil {
		rc.opts.onDaemon(cmd.Process.Pid)
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.done)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := start.Add(startTimeout)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("merynd exited during start-up: %s\n%s", cmd.ProcessState, tail(logPath))
		default:
		}
		if d.base == "" {
			if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
				d.base = "http://" + string(addr)
			}
		}
		if d.base != "" {
			if resp, err := probe.Get(d.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		if time.Now().After(deadline) || rc.ctx.Err() != nil {
			d.kill()
			return nil, 0, fmt.Errorf("merynd not healthy after %s\n%s", time.Since(start).Round(time.Millisecond), tail(logPath))
		}
		time.Sleep(healthPoll)
	}
}

// kill delivers SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.done
}

// stop asks for a graceful shutdown (SIGTERM: drain, final snapshot) and
// waits for it, falling back to SIGKILL.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return fmt.Errorf("merynd had already exited: %s", d.cmd.ProcessState)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("merynd ignored SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("merynd shut down with %s\n%s", d.cmd.ProcessState, tail(d.log))
	}
	return nil
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	blob, _ := os.ReadFile(path)
	if len(blob) > 2000 {
		blob = blob[len(blob)-2000:]
	}
	return string(blob)
}

// client is one load goroutine's connection to the daemon.
type client struct {
	base string
	http *http.Client
	tr   *tracer

	// Per-request client timings, for the join with the access log.
	reqs []reqTiming
}

type reqTiming struct {
	id, op string
	dur    time.Duration
	parent int64
	trace  string
	end    time.Time
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do performs one request and returns its body; a non-2xx status is an
// error. reqID is sent as X-Request-ID so the daemon's access log can be
// joined with the client's timing.
func (c *client) do(trace string, parent int64, op, method, path string, body any, reqID string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(telemetry.RequestIDHeader, reqID)
	sp := c.tr.begin(trace, "http."+op, parent)
	resp, err := c.http.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	dur := sp.end()
	c.reqs = append(c.reqs, reqTiming{id: reqID, op: op, dur: dur, parent: sp.id, trace: trace, end: sp.start.Add(dur)})
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// sessionLoad is the state of the load phase.
type sessionLoad struct {
	mu       sync.Mutex
	latency  []float64 // open loop: seconds from due to accept reply; +Inf when failed
	lag      []float64 // open loop: seconds the generator sent late
	reads    []float64 // open loop: status-read durations, seconds
	closedOK int       // closed loop: sessions completed
	closedT  time.Duration
	failures []string
	failed   int
	attempts int
	cursor   atomic.Int64 // highest event sequence read
}

func (l *sessionLoad) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.failures) < 10 {
		l.failures = append(l.failures, err.Error())
	}
}

// runSession submits an application, accepts its first offer and, in
// the open loop, reads its status (it must have completed: virtual time
// runs every accepted application to settlement) and every tenth time
// the event log. It returns the time the accept reply arrived.
func (l *sessionLoad) runSession(c *client, id string, work float64, open, readEvents bool) (time.Time, error) {
	trace := "session/" + id
	root := c.tr.begin(trace, "session", 0)
	defer root.end()
	var st api.AppStatus
	l.count(1)
	raw, err := c.do(trace, root.id, "submit", http.MethodPost, "/v1/apps", api.App{ID: id, Type: "batch", VMs: 1, WorkS: work}, id+"-submit")
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		return time.Time{}, err
	}
	if st.Phase != string(core.PhaseNegotiating) || len(st.Offers) == 0 {
		return time.Time{}, fmt.Errorf("submit %s: phase %q with %d offers, want an offer", id, st.Phase, len(st.Offers))
	}
	l.count(1)
	if _, err := c.do(trace, root.id, "accept", http.MethodPost, "/v1/apps/"+id+"/accept", map[string]int{"offer_index": 0}, id+"-accept"); err != nil {
		return time.Time{}, err
	}
	accepted := time.Now()
	if !open {
		return accepted, nil
	}
	l.count(1)
	readStart := time.Now()
	raw, err = c.do(trace, root.id, "status", http.MethodGet, "/v1/apps/"+id, nil, id+"-status")
	read := time.Since(readStart)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		return accepted, err
	}
	if st.Phase != string(core.PhaseCompleted) {
		return accepted, fmt.Errorf("status %s: phase %q after accept, want completed", id, st.Phase)
	}
	l.mu.Lock()
	l.reads = append(l.reads, read.Seconds())
	l.mu.Unlock()
	if readEvents {
		l.count(1)
		raw, err := c.do(trace, root.id, "events", http.MethodGet, fmt.Sprintf("/v1/events?since=%d", l.cursor.Load()), nil, id+"-events")
		if err != nil {
			return accepted, err
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev api.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return accepted, fmt.Errorf("event log line: %w", err)
			}
			for cur := l.cursor.Load(); int64(ev.Seq) > cur && !l.cursor.CompareAndSwap(cur, int64(ev.Seq)); cur = l.cursor.Load() {
			}
		}
	}
	return accepted, nil
}

func (l *sessionLoad) count(n int) {
	l.mu.Lock()
	l.attempts += n
	l.mu.Unlock()
}

// workFor draws each session's application size from the seed.
func workFor(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(300 + rng.Intn(601))
	}
	return out
}

// runRounds alternates one second of open loop on clients with one
// closed-loop burst, sz.rounds times. fresh starts the daemon a burst
// runs on and returns a client of it, and a function that releases both
// once the burst is over.
func runRounds(ctx context.Context, clients []*client, sz controlSizes, seed int64, fresh func() (*client, func(), error)) (*sessionLoad, error) {
	n := sz.rounds * sz.open
	l := &sessionLoad{latency: make([]float64, n), lag: make([]float64, n)}
	work := workFor(seed, n+sz.rounds*sz.closed)
	for r := 0; r < sz.rounds && ctx.Err() == nil; r++ {
		l.openLoop(ctx, clients, r*sz.open, sz.open, sz.rate, work)
		c, release, err := fresh()
		if err != nil {
			return nil, err
		}
		l.closedBurst(c, r*sz.closed, sz.closed, work[n:])
		release()
	}
	return l, nil
}

// openLoop sends sessions first..first+n-1, due at rate per second, from
// the load clients. Each session's latency runs from when it was due, so
// a stall is charged to every session it delays.
func (l *sessionLoad) openLoop(ctx context.Context, clients []*client, first, n int, rate float64, work []float64) {
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || ctx.Err() != nil {
					return
				}
				i := first + k
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				l.lag[i] = time.Since(due).Seconds()
				accepted, err := l.runSession(c, fmt.Sprintf("o%06d", i), work[i], true, i%eventsEvery == 0)
				if err != nil {
					l.fail(err)
					l.latency[i] = math.Inf(1)
					continue
				}
				l.latency[i] = accepted.Sub(due).Seconds()
			}
		}(c)
	}
	wg.Wait()
}

// closedBurst runs sessions first..first+n-1 (submit and accept) back to
// back on one client and adds them to the closed loop's totals.
func (l *sessionLoad) closedBurst(c *client, first, n int, work []float64) {
	start := time.Now()
	for i := first; i < first+n; i++ {
		if _, err := l.runSession(c, fmt.Sprintf("c%06d", i), work[i], false, false); err != nil {
			l.fail(err)
			continue
		}
		l.closedOK++
	}
	l.closedT += time.Since(start)
}

// completed counts the applications in a GET /v1/apps body that reached
// the completed phase.
func completed(apps []byte) (int, error) {
	var st []api.AppStatus
	if err := json.Unmarshal(apps, &st); err != nil {
		return 0, fmt.Errorf("GET /v1/apps: %w", err)
	}
	n := 0
	for _, a := range st {
		if a.Phase == string(core.PhaseCompleted) {
			n++
		}
	}
	return n, nil
}

// platformMetrics is the subset of GET /v1/metrics the benchmark reads.
type platformMetrics struct {
	EventsFired uint64           `json:"events_fired"`
	AuditChecks int64            `json:"audit_checks"`
	Counters    map[string]int64 `json:"counters"`
}

func runControl(rc *runCtx) (o *outcome, err error) {
	if rc.opts.merynd == "" {
		return nil, errors.New("the control-plane workload needs -merynd (bench/run.sh builds it)")
	}
	o = newOutcome()
	sz := sizesFor(rc.opts)
	o.sizes["rounds"] = sz.rounds
	o.sizes["open_sessions_per_round"] = sz.open
	o.sizes["open_rate_per_s"] = sz.rate
	o.sizes["closed_sessions_per_round"] = sz.closed
	o.sizes["load_clients"] = loadClients
	seed := rc.opts.seed
	var extra []string
	if rc.traced() {
		extra = []string{"-log-json"}
	}

	// Every daemon started here is killed and reaped before returning,
	// on every path.
	var daemons []*daemon
	defer func() {
		for _, d := range daemons {
			d.kill()
		}
	}()

	// Set-up: exec to /healthz 200 on a fresh state directory. One start
	// serves the open loop and one more each closed-loop burst, so the
	// set-up samples spread over the whole run, not one host state.
	var setupS []float64
	starts := 0
	start := func() (*daemon, string, error) {
		dir := filepath.Join(rc.workDir, fmt.Sprintf("state-%d", starts))
		o.attempted++
		d, took, err := startDaemon(rc, fmt.Sprintf("merynd-%d", starts), dir, extra...)
		starts++
		if err != nil {
			return nil, "", err
		}
		daemons = append(daemons, d)
		setupS = append(setupS, took.Seconds())
		return d, dir, nil
	}
	d, stateDir, err := start()
	if err != nil {
		return nil, err
	}

	get := func(c *client, path string) []byte {
		o.attempted++
		raw, err := c.do("admin", 0, "admin", http.MethodGet, path, nil, "admin-"+strings.TrimPrefix(path, "/"))
		if err != nil {
			o.fail("%v", err)
		}
		return raw
	}
	// checkCompleted fails the run unless want applications completed.
	checkCompleted := func(apps []byte, want int, where string) {
		n, err := completed(apps)
		if err != nil {
			o.fail("%s: %v", where, err)
		} else if n != want {
			o.fail("%s: %d of %d sessions' applications completed", where, n, want)
		}
	}

	clients := make([]*client, loadClients)
	for i := range clients {
		clients[i] = newClient(d.base, rc.tr)
		defer clients[i].close()
	}
	load, err := runRounds(rc.ctx, clients, sz, seed, func() (*client, func(), error) {
		burst, _, err := start()
		if err != nil {
			return nil, nil, err
		}
		c := newClient(burst.base, rc.tr)
		return c, func() {
			checkCompleted(get(c, "/v1/apps"), sz.closed, "closed-loop daemon")
			c.close()
			burst.kill()
		}, nil
	})
	if err != nil {
		return nil, err
	}
	o.attempted += load.attempts
	o.failed += load.failed
	o.failures = append(o.failures, load.failures...)
	if err := rc.ctx.Err(); err != nil {
		return nil, err
	}
	sessions := sz.rounds * sz.open

	// Crash and recover: the state before SIGKILL and after the restart
	// must read back byte for byte.
	admin := newClient(d.base, nil)
	promText := get(admin, "/metrics")
	appsBefore := get(admin, "/v1/apps")
	metricsBefore := get(admin, "/v1/metrics")
	snapInfo, _ := os.Stat(filepath.Join(stateDir, "snapshot.json"))
	admin.close()
	d.kill()
	o.attempted++
	d2, recovery, err := startDaemon(rc, "merynd-recovered", stateDir, extra...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	daemons = append(daemons, d2)
	admin2 := newClient(d2.base, nil)
	defer admin2.close()
	appsAfter := get(admin2, "/v1/apps")
	metricsAfter := get(admin2, "/v1/metrics")
	promAfter := get(admin2, "/metrics")
	if rc.opts.tamper == "recovery" {
		appsAfter = append(appsAfter, ' ')
	}
	if !bytes.Equal(appsBefore, appsAfter) {
		o.fail("GET /v1/apps after recovery differs from before the crash (%d vs %d bytes)", len(appsAfter), len(appsBefore))
	}
	if !bytes.Equal(metricsBefore, metricsAfter) {
		o.fail("GET /v1/metrics after recovery differs from before the crash:\n  before %s\n  after  %s", metricsBefore, metricsAfter)
	}
	checkCompleted(appsAfter, sessions, "recovered daemon")
	var pm platformMetrics
	if err := json.Unmarshal(metricsAfter, &pm); err != nil {
		o.fail("GET /v1/metrics: %v", err)
	}
	o.attempted++
	if err := d2.stop(); err != nil {
		o.fail("graceful shutdown: %v", err)
	}

	// The daemon's history, replayed in this process: the state merynd
	// holds (live heap) and its digest, which must match the snapshot the
	// shutdown sealed.
	rp, err := replayState(rc, o, stateDir)
	if err != nil {
		return nil, err
	}

	o.e2e["setup_s"] = median(setupS)
	o.e2e["items_per_s"] = float64(load.closedOK) / load.closedT.Seconds()
	o.e2e["latency_ms"] = median(load.latency) * 1e3
	o.e2e["live_heap_mb"] = rp.heapMB
	for k, v := range rp.layer {
		o.layer[k] = v
	}
	o.detail["recovery_s"] = recovery.Seconds()
	o.detail["read_p50_ms"] = median(load.reads) * 1e3
	o.detail["session_p90_ms"] = percentile(load.latency, 90) * 1e3
	o.detail["session_p99_ms"] = percentile(load.latency, 99) * 1e3
	o.detail["lag_p99_ms"] = percentile(load.lag, 99) * 1e3

	items := float64(sessions)
	o.layer["sim.events_per_item"] = float64(pm.EventsFired) / items
	o.layer["core.audit_checks_per_item"] = float64(pm.AuditChecks) / items
	o.layer["core.bid_rounds_per_item"] = float64(pm.Counters["bid_rounds"]) / items
	o.layer["core.cloud_leases_per_item"] = float64(pm.Counters["cloud_leases"]) / items
	o.layer["durable.recovery_vs_setup"] = recovery.Seconds() / o.e2e["setup_s"]
	late := 0
	for _, x := range load.lag {
		if x > lateAfter.Seconds() {
			late++
		}
	}
	o.layer["client.late_share"] = float64(late) / float64(max(1, len(load.lag)))
	o.layer["client.lag_p99_share"] = percentile(load.lag, 99) / percentile(load.latency, 99)
	o.layer["client.p99_over_p50"] = percentile(load.latency, 99) / median(load.latency)
	if snapInfo != nil {
		o.layer["durable.snapshot_kib"] = float64(snapInfo.Size()) / 1024
	}
	if err := promLayers(o, promText, promAfter); err != nil {
		o.fail("%v", err)
	}
	if rc.traced() {
		var all []reqTiming
		for _, c := range clients {
			all = append(all, c.reqs...)
		}
		if err := accessLogLayers(rc, o, d.log, all, items); err != nil {
			o.fail("access log: %v", err)
		}
	}
	return o, nil
}

// promLayers reads the durable layer's histograms from the pre-crash
// /metrics exposition and the replay gauges from the restarted daemon's.
func promLayers(o *outcome, before, after []byte) error {
	samples, err := telemetry.ParseText(bytes.NewReader(before))
	if err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	val := func(ss []telemetry.Sample, name string) float64 {
		total := 0.0
		for _, s := range ss {
			if s.Name == name {
				total += s.Value
			}
		}
		return total
	}
	// quantileMS reads a histogram quantile in ms; an empty histogram
	// (no snapshot sealed in a -quick run) reads 0.
	quantileMS := func(q float64, ss []telemetry.Sample, name string) float64 {
		v := telemetry.Quantile(q, telemetry.HistogramBuckets(ss, name))
		if math.IsNaN(v) {
			return 0
		}
		return v * 1e3
	}
	appendSum := val(samples, "meryn_journal_append_seconds_sum")
	o.layer["durable.fsync_share"] = val(samples, "meryn_journal_fsync_seconds_sum") / appendSum
	o.layer["durable.snapshots"] = val(samples, "meryn_snapshot_seal_seconds_count")
	o.layer["api.shed_total"] = val(samples, "meryn_http_requests_shed_total")
	o.detail["append_p50_ms"] = quantileMS(0.5, samples, "meryn_journal_append_seconds")
	o.detail["snapshot_seal_p50_ms"] = quantileMS(0.5, samples, "meryn_snapshot_seal_seconds")
	o.detail["journal_append_s"] = appendSum
	o.detail["snapshot_seal_s"] = val(samples, "meryn_snapshot_seal_seconds_sum")
	byRoute := map[string]any{}
	for _, route := range []string{"/v1/apps", "/v1/apps/{id}/accept", "/v1/apps/{id}", "/v1/events"} {
		var rs []telemetry.Sample
		for _, s := range samples {
			if s.Labels["route"] == route {
				rs = append(rs, s)
			}
		}
		byRoute[route] = map[string]float64{
			"p50_ms": quantileMS(0.5, rs, "meryn_http_request_duration_seconds"),
			"p99_ms": quantileMS(0.99, rs, "meryn_http_request_duration_seconds"),
		}
	}
	o.detail["server_latency_by_route"] = byRoute

	rec, err := telemetry.ParseText(bytes.NewReader(after))
	if err != nil {
		return fmt.Errorf("parse /metrics after recovery: %w", err)
	}
	o.layer["durable.replay_records"] = val(rec, "meryn_replay_records")
	o.detail["replay_records_per_s"] = val(rec, "meryn_replay_records_per_second")
	return nil
}

// accessLogLayers joins the daemon's JSON access log with the client's
// request timings on X-Request-ID: the server's share of each request,
// each route's share of server time, and the durable layer's share of
// the state-changing requests.
func accessLogLayers(rc *runCtx, o *outcome, logPath string, reqs []reqTiming, items float64) error {
	blob, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	server := map[string]time.Duration{}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
			Duration  int64  `json:"duration"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Msg != "http" {
			continue
		}
		server[line.RequestID] = time.Duration(line.Duration)
	}
	var clientTotal, serverTotal, mutating time.Duration
	byOp := map[string]time.Duration{}
	for _, r := range reqs {
		s, ok := server[r.id]
		if !ok {
			return fmt.Errorf("request %s is missing from the access log", r.id)
		}
		clientTotal += r.dur
		serverTotal += s
		byOp[r.op] += s
		if r.op == "submit" || r.op == "accept" {
			mutating += s
		}
		rc.tr.record(r.trace, "merynd."+r.op, r.parent, r.end.Add(-s), r.end)
	}
	o.layer["api.server_share"] = float64(serverTotal) / float64(clientTotal)
	for _, op := range []string{"submit", "accept", "status", "events"} {
		o.layer["api."+op+"_share"] = float64(byOp[op]) / float64(serverTotal)
	}
	o.layer["api.requests_per_item"] = float64(len(reqs)) / items
	if s, ok := o.detail["journal_append_s"].(float64); ok {
		o.layer["durable.append_share"] = s / mutating.Seconds()
	}
	if s, ok := o.detail["snapshot_seal_s"].(float64); ok {
		o.layer["durable.snapshot_share"] = s / mutating.Seconds()
	}
	return nil
}

// replayed is what the in-process replay of a state directory measured.
type replayed struct {
	heapMB float64
	layer  map[string]float64
}

// replayState rebuilds the daemon's session from its state directory the
// way merynd's recovery does, checks the digest against the snapshot the
// shutdown sealed, and measures the live heap it holds. The traced run
// also times the core calls, probes ComputeBid and AuditNow, runs the
// auditor A/B and profiles the replay.
func replayState(rc *runCtx, o *outcome, stateDir string) (replayed, error) {
	rp := replayed{layer: map[string]float64{}}
	store, err := durable.Open(stateDir, durable.Meta{Seed: rc.opts.seed, Policy: "meryn"})
	if err != nil {
		return rp, fmt.Errorf("opening the state dir: %w", err)
	}
	defer store.Close()
	recs := store.Records()
	snap := store.LastCheckpoint()
	if snap == nil {
		return rp, errors.New("the shutdown sealed no snapshot")
	}
	submits := 0
	for _, r := range recs {
		if r.Kind == durable.KindSubmit {
			submits++
		}
	}

	var prof *cpuProfile
	if rc.traced() {
		if prof, err = startCPUProfile(filepath.Join(rc.workDir, "replay.cpu.pprof")); err != nil {
			return rp, err
		}
	}
	mem := startMem()
	one, err := replayOnce(rc.tr, rc.opts.seed, recs, nil)
	if err != nil {
		return rp, err
	}
	mem.into(rp.layer, float64(submits))
	o.attempted++
	if got := fmt.Sprintf("%016x", one.digest); got != snap.Digest {
		o.fail("replayed state digest %s, the sealed snapshot says %s", got, snap.Digest)
	}
	rp.heapMB = liveHeapMB()
	calls := 20000
	if rc.opts.quick {
		calls = 200
	}
	pr := probePlatform(one.p, calls)
	rp.layer["core.compute_bid_ns"] = pr.computeBidNS
	rp.layer["core.audit_us_per_check"] = pr.auditUS
	rp.layer["core.new_platform_us"] = one.newPlat.Seconds() * 1e6
	rp.layer["core.submit_us_per_app"] = one.replay.Seconds() / float64(max(1, submits)) * 1e6
	rp.layer["core.digest_us"] = one.digestT.Seconds() * 1e6
	rp.layer["sim.events_per_s"] = float64(one.events) / one.replay.Seconds()
	drainStart := time.Now()
	if _, err := one.s.Drain(); err != nil {
		o.fail("drain after replay: %v", err)
	}
	rp.layer["core.drain_ms"] = float64(time.Since(drainStart).Microseconds()) / 1e3
	if prof != nil {
		var ab []float64
		for i := 0; i < 2; i++ {
			on, err := replayOnce(nil, rc.opts.seed, recs, nil)
			if err != nil {
				return rp, err
			}
			off, err := replayOnce(nil, rc.opts.seed, recs, auditOff)
			if err != nil {
				return rp, err
			}
			o.attempted++
			if on.digest != off.digest {
				o.fail("replay digest %016x with the auditor, %016x without", on.digest, off.digest)
			}
			ab = append(ab, 1-off.replay.Seconds()/on.replay.Seconds())
		}
		rp.layer["core.audit_share"] = median(ab)
		if err := prof.stop(); err != nil {
			return rp, err
		}
		shares, err := cpuShares(rc.ctx, prof.path)
		if err != nil {
			return rp, err
		}
		for p, v := range shares {
			rp.layer["cpu."+p] = v
		}
	}
	return rp, nil
}

// replayRun is one in-process replay of a journal.
type replayRun struct {
	p       *core.Platform
	s       *core.Session
	digest  uint64
	events  uint64
	newPlat time.Duration
	replay  time.Duration
	digestT time.Duration
}

// replayOnce builds merynd's platform (the default configuration at the
// daemon's seed) and replays recs through durable.Replay with virtual
// mode's settle after every record.
func replayOnce(tr *tracer, seed int64, recs []durable.Record, adjust func(*core.Config)) (r replayRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("replay: panic: %v", p)
		}
	}()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Policy = core.PolicyMeryn
	if adjust != nil {
		adjust(&cfg)
	}
	sp := tr.begin("replay", "core.new_platform", 0)
	p, err := core.NewPlatform(cfg)
	r.newPlat = sp.end()
	if err != nil {
		return r, err
	}
	s, err := p.Open()
	if err != nil {
		return r, err
	}
	sp = tr.begin("replay", "durable.replay", 0)
	stats := durable.Replay(s, recs, func() { s.RunToSettle() })
	r.replay = sp.end()
	if stats.Failed > 0 {
		return r, fmt.Errorf("replay: %d records failed: %s", stats.Failed, strings.Join(stats.Errors, "; "))
	}
	sp = tr.begin("replay", "core.digest", 0)
	r.digest = s.Digest()
	r.digestT = sp.end()
	r.events = s.Metrics().EventsFired
	r.p, r.s = p, s
	return r, nil
}
