package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"meryn/internal/api"
	"meryn/internal/core"
	"meryn/internal/durable"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// contractPlane serves a batch VC and a serverless VC with a durable
// store, stepping the clock 60 s after every mutation so the function
// is still running when revision operations land. Before it returns,
// batch app "b" waits at its offers and function "f" runs under an
// agreed contract.
func contractPlane(t *testing.T) (*httptest.Server, *durable.Store) {
	t.Helper()
	store, err := durable.Open(t.TempDir(), durable.Meta{Seed: 1, Policy: "meryn"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	sess := mixedSession(t)
	srv := New(sess, Config{
		OnMutate: func() { sess.Step(sess.Now() + sim.Seconds(60)) },
		Store:    store,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, c := range []struct{ path, body string }{
		{"/v1/apps", batchApp},
		{"/v1/apps", fnApp},
		{"/v1/apps/f/accept", ""},
	} {
		if code, body := postRaw(t, ts, c.path, c.body); code >= 300 {
			t.Fatalf("fixture POST %s: %d %s", c.path, code, body)
		}
	}
	return ts, store
}

// mixedSession opens a session on a batch VC and a serverless VC.
func mixedSession(t testing.TB) *core.Session {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		VCs: []core.VCConfig{
			{Name: "vc1", Type: workload.TypeBatch, InitialVMs: 10},
			{Name: "fn1", Type: workload.TypeServerless, InitialVMs: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

const (
	batchApp = `{"id":"b","type":"batch","vms":1,"work_s":600}`
	fnApp    = `{"id":"f","type":"serverless","vc":"fn1","replicas":2,"svc_rate":10,"duration_s":900,` +
		`"cold_start_s":5,"conc_target":1,"idle_window_s":120,"declared_peak":8,` +
		`"load":{"base":8,"on_off_period_s":120,"on_off_active_s":60}}`
)

// postRaw sends body verbatim (no body at all when empty) and returns
// the status code and the reply.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	var rd io.Reader = http.NoBody
	if body != "" {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(ts.URL+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestMutatingRouteStatusContract pins the status code of every
// mutating route for each way a request can end: bad JSON, failed
// validation, unknown app, wrong negotiation state, a failed journal
// write, a retry that converges and success. A retry answers as its
// first try did whether or not that first try landed.
func TestMutatingRouteStatusContract(t *testing.T) {
	type post struct{ path, body string }
	cases := []struct {
		name   string
		prep   []post // run after the fixture; their codes are not checked
		broken bool   // close the store before the request
		req    post
		want   int
	}{
		{name: "submit/bad JSON", req: post{"/v1/apps", `{`}, want: http.StatusBadRequest},
		{name: "submit/missing type", req: post{"/v1/apps", `{"vms":1,"work_s":600}`}, want: http.StatusBadRequest},
		{name: "submit/unknown VC", req: post{"/v1/apps", `{"type":"batch","vc":"nope","vms":1,"work_s":600}`}, want: http.StatusBadRequest},
		{name: "submit/journal failure", broken: true, req: post{"/v1/apps", `{"type":"batch","vms":1,"work_s":600}`}, want: http.StatusServiceUnavailable},
		{name: "submit/retry", req: post{"/v1/apps", batchApp}, want: http.StatusOK},
		{name: "submit/success", req: post{"/v1/apps", `{"type":"batch","vms":1,"work_s":600}`}, want: http.StatusCreated},

		{name: "accept/bad JSON", req: post{"/v1/apps/b/accept", `{`}, want: http.StatusBadRequest},
		{name: "accept/unknown app", req: post{"/v1/apps/nope/accept", ""}, want: http.StatusNotFound},
		{name: "accept/wrong state", prep: []post{{"/v1/apps/b/reject", ""}}, req: post{"/v1/apps/b/accept", ""}, want: http.StatusConflict},
		{name: "accept/bad offer index", req: post{"/v1/apps/b/accept", `{"offer_index":99}`}, want: http.StatusConflict},
		{name: "accept/journal failure", broken: true, req: post{"/v1/apps/b/accept", ""}, want: http.StatusServiceUnavailable},
		{name: "accept/retry", prep: []post{{"/v1/apps/b/accept", ""}}, req: post{"/v1/apps/b/accept", ""}, want: http.StatusOK},
		{name: "accept/success", req: post{"/v1/apps/b/accept", `{"offer_index":0}`}, want: http.StatusOK},

		{name: "counter/bad JSON", req: post{"/v1/apps/b/counter", `{`}, want: http.StatusBadRequest},
		{name: "counter/both terms", req: post{"/v1/apps/b/counter", `{"deadline_s":900,"price":100}`}, want: http.StatusBadRequest},
		{name: "counter/unknown app", req: post{"/v1/apps/nope/counter", `{"price":100}`}, want: http.StatusNotFound},
		{name: "counter/wrong state", prep: []post{{"/v1/apps/b/accept", ""}}, req: post{"/v1/apps/b/counter", `{"price":100}`}, want: http.StatusConflict},
		{name: "counter/journal failure", broken: true, req: post{"/v1/apps/b/counter", `{"deadline_s":5000}`}, want: http.StatusServiceUnavailable},
		{name: "counter/success", req: post{"/v1/apps/b/counter", `{"deadline_s":5000}`}, want: http.StatusOK},

		{name: "reject/unknown app", req: post{"/v1/apps/nope/reject", ""}, want: http.StatusNotFound},
		{name: "reject/wrong state", prep: []post{{"/v1/apps/b/accept", ""}}, req: post{"/v1/apps/b/reject", ""}, want: http.StatusConflict},
		{name: "reject/journal failure", broken: true, req: post{"/v1/apps/b/reject", ""}, want: http.StatusServiceUnavailable},
		{name: "reject/retry", prep: []post{{"/v1/apps/b/reject", ""}}, req: post{"/v1/apps/b/reject", ""}, want: http.StatusOK},
		{name: "reject/success", req: post{"/v1/apps/b/reject", ""}, want: http.StatusOK},

		{name: "deploy/bad JSON", req: post{"/v1/apps/f/revisions", `{`}, want: http.StatusBadRequest},
		{name: "deploy/empty name", req: post{"/v1/apps/f/revisions", `{"name":""}`}, want: http.StatusBadRequest},
		// The revision routes have no 404 pre-check: the request is
		// journaled and its apply fails.
		{name: "deploy/unknown app", req: post{"/v1/apps/nope/revisions", `{"name":"v2"}`}, want: http.StatusConflict},
		{name: "deploy/wrong state", req: post{"/v1/apps/b/revisions", `{"name":"v2"}`}, want: http.StatusConflict},
		{name: "deploy/journal failure", broken: true, req: post{"/v1/apps/f/revisions", `{"name":"v2"}`}, want: http.StatusServiceUnavailable},
		{name: "deploy/retry", prep: []post{{"/v1/apps/f/revisions", `{"name":"v2"}`}}, req: post{"/v1/apps/f/revisions", `{"name":"v2"}`}, want: http.StatusOK},
		{name: "deploy/success", req: post{"/v1/apps/f/revisions", `{"name":"v2"}`}, want: http.StatusCreated},

		{name: "traffic/bad JSON", req: post{"/v1/apps/f/traffic", `{`}, want: http.StatusBadRequest},
		{name: "traffic/empty weights", req: post{"/v1/apps/f/traffic", `{"weights":{}}`}, want: http.StatusBadRequest},
		{name: "traffic/unknown app", req: post{"/v1/apps/nope/traffic", `{"weights":{"rev-1":100}}`}, want: http.StatusConflict},
		{name: "traffic/unknown revision", req: post{"/v1/apps/f/traffic", `{"weights":{"v9":100}}`}, want: http.StatusConflict},
		{name: "traffic/journal failure", broken: true, req: post{"/v1/apps/f/traffic", `{"weights":{"rev-1":100}}`}, want: http.StatusServiceUnavailable},
		{name: "traffic/success", prep: []post{{"/v1/apps/f/revisions", `{"name":"v2"}`}},
			req: post{"/v1/apps/f/traffic", `{"weights":{"rev-1":90,"v2":10}}`}, want: http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, store := contractPlane(t)
			var first string
			for _, p := range tc.prep {
				_, first = postRaw(t, ts, p.path, p.body)
			}
			if tc.broken {
				store.Close()
			}
			code, body := postRaw(t, ts, tc.req.path, tc.req.body)
			if code != tc.want {
				t.Fatalf("POST %s %s: %d %s, want %d", tc.req.path, tc.req.body, code, body, tc.want)
			}
			if code >= 400 {
				var e api.Error
				if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
					t.Fatalf("%d without a JSON error: %q", code, body)
				}
			}
			if strings.HasSuffix(tc.name, "/retry") && tc.req.path != "/v1/apps" && body != first {
				t.Fatalf("retry answered %s, the first try %s", body, first)
			}
		})
	}
}
