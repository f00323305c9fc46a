package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildMerynd compiles the daemon once per test binary into a temp dir.
func buildMerynd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "merynd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build merynd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running merynd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  *syncBuffer
}

// syncBuffer is the child's stdout and stderr. os/exec's copier
// goroutine writes it while the test reads it, so both take the lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon boots merynd on a random port with the given extra flags
// and waits until /healthz answers 200 (i.e. recovery, if any, is done).
func startDaemon(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	out := &syncBuffer{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	d := &daemon{cmd: cmd, out: out}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.base = "http://" + string(addr)
			resp, err := http.Get(d.base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("merynd did not become healthy; output:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *daemon) post(t *testing.T, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(d.base+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// kill9 delivers SIGKILL — no shutdown hook, no final snapshot; the
// journal alone must carry the state across.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

type appView struct {
	ID     string `json:"id"`
	Phase  string `json:"phase"`
	Offers []struct {
		Price float64 `json:"price"`
	} `json:"offers"`
}

// TestCrashRestartRecovers is the end-to-end crash drill from ISSUE 7:
// drive a negotiation halfway, SIGKILL the daemon, tear the journal's
// final record by hand, restart on the same state dir — the negotiation
// must come back resumable and finish, and the recovered daemon's
// /v1/apps and /v1/metrics must be byte-identical to a control daemon
// that ran the same actions uninterrupted.
func TestCrashRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon; skipped with -short")
	}
	bin := buildMerynd(t)
	stateDir := t.TempDir()

	d1 := startDaemon(t, bin, "-state-dir", stateDir)
	code, raw := d1.post(t, "/v1/apps", map[string]any{"id": "crash-1", "type": "batch", "vms": 1, "work_s": 600})
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, raw)
	}
	var st appView
	if err := json.Unmarshal(raw, &st); err != nil || len(st.Offers) == 0 {
		t.Fatalf("submit reply: %v %s", err, raw)
	}
	if code, raw = d1.post(t, "/v1/apps/crash-1/counter", map[string]float64{"price": st.Offers[0].Price}); code != http.StatusOK {
		t.Fatalf("counter: %d %s", code, raw)
	}

	// Crash mid-negotiation, then simulate the torn final append a real
	// power cut leaves behind.
	d1.kill9(t)
	j := filepath.Join(stateDir, "journal.ndjson")
	f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"c":99,"r":{"seq":9,"kind":"acc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := startDaemon(t, bin, "-state-dir", stateDir)
	if !strings.Contains(d2.out.String(), "torn final journal record") {
		t.Errorf("restart did not report the torn record; output:\n%s", d2.out.String())
	}
	if !strings.Contains(d2.out.String(), "recovered 2 records") {
		t.Errorf("restart did not report recovery; output:\n%s", d2.out.String())
	}

	// The negotiation survived the crash: round-2 offers are still on the
	// table, and accepting completes the application.
	var cur appView
	if err := json.Unmarshal(d2.get(t, "/v1/apps/crash-1"), &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Phase != "negotiating" || len(cur.Offers) == 0 {
		t.Fatalf("after recovery: phase=%s offers=%d", cur.Phase, len(cur.Offers))
	}
	if code, raw = d2.post(t, "/v1/apps/crash-1/accept", map[string]int{"offer_index": 0}); code != http.StatusOK {
		t.Fatalf("accept after recovery: %d %s", code, raw)
	}
	apps := d2.get(t, "/v1/apps")
	metricsB := d2.get(t, "/v1/metrics")
	if !bytes.Contains(apps, []byte(`"completed"`)) {
		t.Fatalf("app did not complete after recovery: %s", apps)
	}

	// Control: the same actions, never interrupted, on a fresh state dir.
	ctl := startDaemon(t, bin, "-state-dir", t.TempDir())
	_, raw = ctl.post(t, "/v1/apps", map[string]any{"id": "crash-1", "type": "batch", "vms": 1, "work_s": 600})
	var cst appView
	if err := json.Unmarshal(raw, &cst); err != nil {
		t.Fatal(err)
	}
	ctl.post(t, "/v1/apps/crash-1/counter", map[string]float64{"price": cst.Offers[0].Price})
	ctl.post(t, "/v1/apps/crash-1/accept", map[string]int{"offer_index": 0})
	if want := ctl.get(t, "/v1/apps"); !bytes.Equal(apps, want) {
		t.Errorf("/v1/apps diverged from uninterrupted control run:\n got: %s\nwant: %s", apps, want)
	}
	if want := ctl.get(t, "/v1/metrics"); !bytes.Equal(metricsB, want) {
		t.Errorf("/v1/metrics diverged from uninterrupted control run:\n got: %s\nwant: %s", metricsB, want)
	}
}

// sealAndStop drives one submit + accept on a fresh daemon over
// stateDir, then stops it with SIGINT, which seals the final state. It
// returns /v1/apps as the daemon served it before the signal.
func sealAndStop(t *testing.T, bin, stateDir string) []byte {
	t.Helper()
	d := startDaemon(t, bin, "-state-dir", stateDir)
	if code, raw := d.post(t, "/v1/apps", map[string]any{"id": "seal-1", "type": "batch", "vms": 1, "work_s": 600}); code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, raw)
	}
	d.post(t, "/v1/apps/seal-1/accept", nil)
	apps := d.get(t, "/v1/apps")
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("merynd exit after SIGINT: %v\n%s", err, d.out.String())
	}
	if !strings.Contains(d.out.String(), "final snapshot written") {
		t.Errorf("no final seal on shutdown; output:\n%s", d.out.String())
	}
	return apps
}

// TestGracefulShutdownSealsState: SIGTERM drains and seals the final
// state after every journaled record, and the next boot replays the
// journal, which keeps every record, and verifies that seal.
func TestGracefulShutdownSealsState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon; skipped with -short")
	}
	bin := buildMerynd(t)
	stateDir := t.TempDir()
	before := sealAndStop(t, bin, stateDir)

	journal, err := os.ReadFile(filepath.Join(stateDir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var seal struct {
		LastSeq int64 `json:"last_seq"`
	}
	raw, err := os.ReadFile(filepath.Join(stateDir, "snapshot.json"))
	if err == nil {
		err = json.Unmarshal(raw, &seal)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(bytes.Count(journal, []byte("\n"))); n != 2 || seal.LastSeq != n {
		t.Errorf("journal holds %d records and the seal covers %d; want both 2", n, seal.LastSeq)
	}

	d2 := startDaemon(t, bin, "-state-dir", stateDir)
	if !strings.Contains(d2.out.String(), "verified the seal after seq 2") {
		t.Errorf("restart did not verify the seal; output:\n%s", d2.out.String())
	}
	if got := d2.get(t, "/v1/apps"); !bytes.Equal(got, before) {
		t.Errorf("/v1/apps after recovery:\n got: %s\nwant: %s", got, before)
	}
}

// TestTamperedSealRefusesToServe: a daemon whose replay does not
// reproduce the sealed digest names the divergence and exits 1, and
// /healthz never answers 200 on the way.
func TestTamperedSealRefusesToServe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon; skipped with -short")
	}
	bin := buildMerynd(t)
	stateDir := t.TempDir()
	sealAndStop(t, bin, stateDir)
	path := filepath.Join(stateDir, "snapshot.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := regexp.MustCompile(`"digest":"[0-9a-f]*"`).ReplaceAll(raw, []byte(`"digest":"0000000000000000"`))
	if bytes.Equal(tampered, raw) {
		t.Fatalf("no digest in the seal: %s", raw)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	addrFile := filepath.Join(t.TempDir(), "addr")
	var out bytes.Buffer
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state-dir", stateDir)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	timeout := time.After(20 * time.Second)
	for {
		select {
		case err := <-exited:
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("merynd on a tampered seal: exit %v, want status 1; output:\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "diverges at the seal after seq 2") ||
				!strings.Contains(out.String(), "sealed 0000000000000000") {
				t.Fatalf("the refusal does not name the seal; output:\n%s", out.String())
			}
			return
		case <-timeout:
			cmd.Process.Kill()
			t.Fatalf("merynd kept running on a tampered seal; output:\n%s", out.String())
		default:
		}
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			if resp, err := http.Get("http://" + string(addr) + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					t.Errorf("/healthz answered 200 on a tampered seal")
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseVCs(t *testing.T) {
	vcs, err := parseVCs("fn1:serverless:12, vc1:batch:25")
	if err != nil {
		t.Fatal(err)
	}
	if len(vcs) != 2 || vcs[0].Name != "fn1" || string(vcs[0].Type) != "serverless" ||
		vcs[0].InitialVMs != 12 || vcs[1].Name != "vc1" || vcs[1].InitialVMs != 25 {
		t.Fatalf("parsed %+v", vcs)
	}
	for _, bad := range []string{"", "fn1", "fn1:serverless", "fn1:faas:8", ":batch:8", "fn1:batch:-1", "fn1:batch:x"} {
		if _, err := parseVCs(bad); err == nil {
			t.Errorf("parseVCs(%q) accepted", bad)
		}
	}
}

// TestServerlessVCFlagEndToEnd boots the daemon with a serverless VC
// (-vcs) in wall mode — so an accepted function stays mid-flight —
// and drives the full CLI surface over HTTP: negotiate, accept, deploy
// a canary revision, split traffic 90/10, read the revision set back.
func TestServerlessVCFlagEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the daemon; skipped with -short")
	}
	bin := buildMerynd(t)
	d := startDaemon(t, bin, "-mode", "wall", "-speed", "60", "-vcs", "fn1:serverless:8,vc1:batch:10")

	code, raw := d.post(t, "/v1/apps", map[string]any{
		"id": "fn-demo", "type": "serverless", "vc": "fn1",
		"replicas": 2, "svc_rate": 10.0, "duration_s": 3600.0,
		"cold_start_s": 5.0, "declared_peak": 8.0,
		"load": map[string]any{"base": 8.0},
	})
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, raw)
	}
	var st appView
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Offers) == 0 {
		t.Fatalf("no offers: %s", raw)
	}
	if code, raw := d.post(t, "/v1/apps/fn-demo/accept", map[string]int{"offer_index": 0}); code != http.StatusOK {
		t.Fatalf("accept: %d %s", code, raw)
	}

	// The function launches at its negotiated start; retry the deploy
	// until the job exists (processing latency is ~1.4 real seconds at
	// -speed 60).
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, raw = d.post(t, "/v1/apps/fn-demo/revisions", map[string]string{"name": "v2"})
		if code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deploy v2 never succeeded: %d %s", code, raw)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// A retried deploy converges without error.
	if code, raw := d.post(t, "/v1/apps/fn-demo/revisions", map[string]string{"name": "v2"}); code != http.StatusOK {
		t.Fatalf("retried deploy: %d %s", code, raw)
	}
	if code, raw := d.post(t, "/v1/apps/fn-demo/traffic", map[string]any{
		"weights": map[string]int{"rev-1": 90, "v2": 10},
	}); code != http.StatusOK {
		t.Fatalf("set traffic: %d %s", code, raw)
	}
	var revs []struct {
		Name   string `json:"name"`
		Weight int    `json:"weight"`
	}
	if err := json.Unmarshal(d.get(t, "/v1/apps/fn-demo/revisions"), &revs); err != nil {
		t.Fatal(err)
	}
	if len(revs) != 2 || revs[0].Name != "rev-1" || revs[0].Weight != 90 ||
		revs[1].Name != "v2" || revs[1].Weight != 10 {
		t.Fatalf("revision set = %+v, want rev-1@90 v2@10", revs)
	}
}

// TestHealthzReportsMode is a cheap sanity check that the daemon refuses
// bad flags and reports where it listens.
func TestBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the daemon; skipped with -short")
	}
	bin := buildMerynd(t)
	for _, args := range [][]string{
		{"-mode", "warp"},
		{"-policy", "chaos"},
		{"-mode", "wall", "-speed", "-1"},
		{"-vcs", "fn1:faas:8"},
		{"-vcs", "fn1:serverless"},
		{"-vcs", ":serverless:8"},
		{"-vcs", "fn1:serverless:0"},
	} {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("merynd %v exited 0; output: %s", args, out)
		}
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() != 1 {
			t.Errorf("merynd %v exit = %d, want 1 (output: %s)", args, ee.ExitCode(), out)
		}
	}
}
