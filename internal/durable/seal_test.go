package durable_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"meryn/internal/api"
	"meryn/internal/api/server"
	"meryn/internal/core"
	"meryn/internal/durable"
	"meryn/internal/sim"
)

func freshSession(t *testing.T) *core.Session {
	t.Helper()
	p, err := core.NewPlatform(core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func reopen(t *testing.T, dir string) *durable.Store {
	t.Helper()
	store, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestPeriodicSealMatchesReplay: 40 submit + accept sessions journal 80
// records, and the periodic seal follows record 64. It is taken after
// that record's apply, so replaying records 1..64 hashes to its digest.
func TestPeriodicSealMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	live := boot(t, dir)
	for i := 0; i < 40; i++ {
		var st api.AppStatus
		live.post(t, "/v1/apps", api.App{Type: "batch", VMs: 1, WorkS: 600}, &st)
		live.post(t, "/v1/apps/"+st.ID+"/accept", nil, nil)
	}
	live.ts.Close()
	live.store.Close()

	store := reopen(t, dir)
	recs := store.Records()
	if len(recs) != 80 {
		t.Fatalf("journal holds %d records, want 80", len(recs))
	}
	seal := store.LastCheckpoint()
	if seal == nil || seal.LastSeq != 64 {
		t.Fatalf("seal = %+v, want one after seq 64", seal)
	}
	sess := freshSession(t)
	if stats := durable.Replay(sess, recs[:64], func() { sess.RunToSettle() }); stats.Failed != 0 {
		t.Fatalf("replay stats = %+v", stats)
	}
	if got := fmt.Sprintf("%016x", sess.Digest()); got != seal.Digest {
		t.Fatalf("records 1..64 replay to digest %s, the seal says %s", got, seal.Digest)
	}
}

// sealedDir builds a state dir with drive's 7 records, sealed after
// the last, and returns it with the live digest.
func sealedDir(t testing.TB) (dir, digest string) {
	t.Helper()
	dir = t.TempDir()
	live := boot(t, dir)
	drive(t, live, func() {})
	if err := live.srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	digest = fmt.Sprintf("%016x", live.sess.Digest())
	live.ts.Close()
	live.store.Close()
	return dir, digest
}

// TestRecoverRefusesTamperedSeal: a seal whose digest replay does not
// reproduce is refused, and the error names the seal's seq and both
// digests.
func TestRecoverRefusesTamperedSeal(t *testing.T) {
	dir, digest := sealedDir(t)
	path := filepath.Join(dir, "snapshot.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seal map[string]any
	if err := json.Unmarshal(raw, &seal); err != nil {
		t.Fatal(err)
	}
	if seal["digest"] != digest {
		t.Fatalf("sealed digest %v, live %s", seal["digest"], digest)
	}
	seal["digest"] = "0000000000000000"
	if raw, err = json.Marshal(seal); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	store := reopen(t, dir)
	recs, sealed := store.Records(), store.LastCheckpoint()
	sess := freshSession(t)
	if _, err := durable.Recover(sess, recs[:3], sealed, nil); err == nil || !strings.Contains(err.Error(), "seq 7") {
		t.Fatalf("a seal past the records given: err = %v", err)
	}
	negative := *sealed
	negative.LastSeq = -1
	if _, err := durable.Recover(sess, recs, &negative, nil); err == nil {
		t.Fatal("Recover accepted a seal with last_seq -1")
	}
	_, err = durable.Recover(sess, recs, sealed, func() { sess.RunToSettle() })
	if err == nil {
		t.Fatal("Recover accepted a tampered seal")
	}
	for _, want := range []string{"diverges", "seq 7", digest, "0000000000000000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// wallTrial runs one wall-mode control plane: a goroutine steps the
// clock 0.5 s every 50 µs through Server.Step, as merynd's wall ticker
// does, while 30 submit + accept sessions arrive over HTTP. It then
// seals the live state and recovers the state dir on a fresh session,
// returning Recover's error.
func wallTrial(t *testing.T) error {
	t.Helper()
	dir := t.TempDir()
	store, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := freshSession(t)
	srv := server.New(sess, server.Config{Store: store})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pl := &plane{ts: ts, sess: sess, store: store, srv: srv}

	stop, done := make(chan struct{}), make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop); <-done })
	defer halt()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Step(sess.Now() + sim.Seconds(0.5))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for i := 0; i < 30; i++ {
		var st api.AppStatus
		if resp := pl.post(t, "/v1/apps", api.App{Type: "batch", VMs: 1, WorkS: 600}, &st); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		pl.post(t, "/v1/apps/"+st.ID+"/accept", nil, nil)
	}
	halt()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	again := reopen(t, dir)
	_, err = durable.Recover(freshSession(t), again.Records(), again.LastCheckpoint(), nil)
	return err
}

// TestWallClockReplayMatchesLive: with the clock stepped through
// Server.Step, which holds the write lock, the clock never moves
// between a record's append and its apply, so in each of 5 trials the
// replayed state reproduces the sealed live digest. (Stepped through
// Session.Step instead, replay diverges.)
func TestWallClockReplayMatchesLive(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		if err := wallTrial(t); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestRecoverRefusesSealTimeOutOfRange: a seal at a time sim.Time
// cannot hold is refused. (sim.Seconds overflows past 9223372036 s and
// turns negative, so Recover would skip the step to it and verify.)
func TestRecoverRefusesSealTimeOutOfRange(t *testing.T) {
	dir, _ := sealedDir(t)
	store := reopen(t, dir)
	for _, ts := range []float64{-1, 1e12, 9e15, math.NaN()} {
		seal := *store.LastCheckpoint()
		seal.TimeS = ts
		sess := freshSession(t)
		_, err := durable.Recover(sess, store.Records(), &seal, func() { sess.RunToSettle() })
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("seal time_s %g: err = %v, want out of range", ts, err)
		}
	}
}

// FuzzRecoverSeal: for any bytes as snapshot.json beside drive's 7
// records, Open refuses them, or Recover refuses or verifies the seal;
// nothing panics, and after a verified seal the recovered clock is at
// or past the seal's time.
func FuzzRecoverSeal(f *testing.F) {
	dir, _ := sealedDir(f)
	journal, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	var seal map[string]any
	if err := json.Unmarshal(clean, &seal); err != nil {
		f.Fatal(err)
	}
	edit := func(key string, v any) []byte {
		old := seal[key]
		defer func() { seal[key] = old }()
		seal[key] = v
		raw, err := json.Marshal(seal)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	f.Add(clean)
	f.Add(edit("digest", "0000000000000000"))
	f.Add(edit("last_seq", -1))
	f.Add(edit("last_seq", 8))
	f.Add(clean[:len(clean)/2])
	f.Add(edit("time_s", 1e12))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
		if err != nil {
			return
		}
		defer store.Close()
		sess := freshSession(t)
		sealed := store.LastCheckpoint()
		if _, err := durable.Recover(sess, store.Records(), sealed, func() { sess.RunToSettle() }); err != nil {
			return
		}
		if at := sim.Seconds(sealed.TimeS); !(sealed.TimeS >= 0 && at >= 0 && sess.Now() >= at) {
			t.Fatalf("verified the seal at time_s %g, but the recovered clock is at %v", sealed.TimeS, sess.Now())
		}
	})
}
