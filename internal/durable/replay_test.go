package durable_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"meryn/internal/api"
	"meryn/internal/api/server"
	"meryn/internal/core"
	"meryn/internal/durable"
)

// bootstrap assembles the full durable control plane the way merynd
// -state-dir does: platform, session, store-backed server, virtual
// time.
type plane struct {
	ts    *httptest.Server
	sess  *core.Session
	store *durable.Store
	srv   *server.Server
}

func boot(t testing.TB, dir string) *plane {
	t.Helper()
	store, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sess, server.Config{
		OnMutate: func() { sess.RunToSettle() },
		Store:    store,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { store.Close() })
	return &plane{ts: ts, sess: sess, store: store, srv: srv}
}

func (pl *plane) post(t testing.TB, path string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(pl.ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	return resp
}

func (pl *plane) getBytes(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := http.Get(pl.ts.URL + path)
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

// drive runs a multi-app, multi-round negotiation history: submit,
// counter, accept; a second app rejected; a third accepted directly.
// mid runs after the first app's three records.
func drive(t testing.TB, pl *plane, mid func()) {
	t.Helper()
	var st api.AppStatus
	pl.post(t, "/v1/apps", api.App{Type: "batch", VMs: 1, WorkS: 600}, &st)
	if len(st.Offers) == 0 {
		t.Fatalf("no offers: %+v", st)
	}
	var offers []api.Offer
	pl.post(t, "/v1/apps/"+st.ID+"/counter", map[string]float64{"price": st.Offers[0].Price}, &offers)
	pl.post(t, "/v1/apps/"+st.ID+"/accept", map[string]int{"offer_index": 0}, nil)
	mid()

	var st2 api.AppStatus
	pl.post(t, "/v1/apps", api.App{Type: "batch", VMs: 2, WorkS: 900}, &st2)
	pl.post(t, "/v1/apps/"+st2.ID+"/reject", nil, nil)

	var st3 api.AppStatus
	pl.post(t, "/v1/apps", api.App{Type: "batch", VMs: 2, WorkS: 450}, &st3)
	pl.post(t, "/v1/apps/"+st3.ID+"/accept", nil, nil)
}

// TestReplayRebuildsByteIdenticalState is the tentpole property: kill
// the control plane at an arbitrary point (here: simply never shut it
// down — every record is already fsync'd) and a fresh platform that
// recovers the store serves byte-identical /v1/apps, /v1/events and
// /v1/metrics, and hashes to the same state digest. A seal taken
// mid-history is checked on the way.
func TestReplayRebuildsByteIdenticalState(t *testing.T) {
	dir := t.TempDir()
	live := boot(t, dir)
	drive(t, live, func() {
		if err := live.srv.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})

	apps := live.getBytes(t, "/v1/apps")
	metricsB := live.getBytes(t, "/v1/metrics")
	events := live.getBytes(t, "/v1/events")
	digest := live.sess.Digest()

	// "Crash": abandon the live plane without any shutdown hook.
	live.ts.Close()
	live.store.Close()

	store2, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	recs := store2.Records()
	if len(recs) != 7 {
		t.Fatalf("recovered %d records, want 7", len(recs))
	}
	seal := store2.LastCheckpoint()
	if seal == nil || seal.LastSeq != 3 {
		t.Fatalf("seal = %+v, want one after seq 3", seal)
	}

	p2, err := core.NewPlatform(core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := p2.Open()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := durable.Recover(sess2, recs, seal, func() { sess2.RunToSettle() })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 || stats.Applied != len(recs) {
		t.Fatalf("replay stats = %+v\nerrors: %v", stats, stats.Errors)
	}
	if got := sess2.Digest(); got != digest {
		t.Fatalf("state digest after replay = %016x, want %016x", got, digest)
	}

	srv2 := server.New(sess2, server.Config{OnMutate: func() { sess2.RunToSettle() }})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	reborn := &plane{ts: ts2, sess: sess2}
	for path, want := range map[string][]byte{
		"/v1/apps":    apps,
		"/v1/metrics": metricsB,
		"/v1/events":  events,
	} {
		if got := reborn.getBytes(t, path); !bytes.Equal(got, want) {
			t.Errorf("%s diverged after replay:\n got: %s\nwant: %s", path, got, want)
		}
	}
}

// TestReplayMidNegotiation: the crash lands between the offer round
// and the accept — the negotiation must come back resumable, and the
// accept must then complete on the replayed platform.
func TestReplayMidNegotiation(t *testing.T) {
	dir := t.TempDir()
	live := boot(t, dir)
	var st api.AppStatus
	live.post(t, "/v1/apps", api.App{Type: "batch", VMs: 1, WorkS: 600}, &st)
	var offers []api.Offer
	live.post(t, "/v1/apps/"+st.ID+"/counter", map[string]float64{"price": st.Offers[0].Price}, &offers)
	live.ts.Close()
	live.store.Close()

	store2, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	p2, _ := core.NewPlatform(core.Config{Seed: 1})
	sess2, _ := p2.Open()
	if stats := durable.Replay(sess2, store2.Records(), func() { sess2.RunToSettle() }); stats.Failed != 0 {
		t.Fatalf("replay stats = %+v", stats)
	}

	neg, ok := sess2.Negotiation(st.ID)
	if !ok {
		t.Fatalf("negotiation for %s lost", st.ID)
	}
	if neg.State() != core.NegotiationOffered || neg.Round() != 1 {
		t.Fatalf("state=%s round=%d, want offered round 1", neg.State(), neg.Round())
	}
	got := neg.Offers()
	if len(got) != len(offers) || got[0].Price != offers[0].Price {
		t.Fatalf("replayed offers %+v, want %+v", got, offers)
	}
	if _, err := neg.Accept(0); err != nil {
		t.Fatal(err)
	}
	sess2.RunToSettle()
	status, err := sess2.Status(st.ID)
	if err != nil || status.Phase != core.PhaseCompleted {
		t.Fatalf("after accept on replayed platform: phase=%s err=%v", status.Phase, err)
	}
}

// TestReplayToleratesFailedRecords: the journal is written ahead of the
// apply, so a request that failed live (bad offer index) has a record;
// replay must fail it identically and keep going.
func TestReplayToleratesFailedRecords(t *testing.T) {
	dir := t.TempDir()
	live := boot(t, dir)
	var st api.AppStatus
	live.post(t, "/v1/apps", api.App{Type: "batch", VMs: 1, WorkS: 600}, &st)
	var apiErr api.Error
	if resp := live.post(t, "/v1/apps/"+st.ID+"/accept", map[string]int{"offer_index": 99}, &apiErr); resp.StatusCode != http.StatusConflict {
		t.Fatalf("accept with bad index: %d (%s)", resp.StatusCode, apiErr.Error)
	}
	live.post(t, "/v1/apps/"+st.ID+"/accept", map[string]int{"offer_index": 0}, nil)
	digest := live.sess.Digest()
	live.ts.Close()
	live.store.Close()

	store2, err := durable.Open(dir, durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	p2, _ := core.NewPlatform(core.Config{Seed: 1})
	sess2, _ := p2.Open()
	stats := durable.Replay(sess2, store2.Records(), func() { sess2.RunToSettle() })
	if stats.Failed != 1 || stats.Applied != 2 {
		t.Fatalf("replay stats = %+v, want 1 failed (the bad accept), 2 applied", stats)
	}
	if got := sess2.Digest(); got != digest {
		t.Fatalf("digest = %016x, want %016x", got, digest)
	}
}
