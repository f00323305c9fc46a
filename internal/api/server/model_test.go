package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meryn/internal/api"
	"meryn/internal/core"
	"meryn/internal/durable"
	"meryn/internal/sim"
)

var modelMeta = durable.Meta{Seed: 1, Policy: "meryn"}

// modelMutator is the OnMutate hook of a model run, and of every replay
// of it, by mode: merynd's virtual mode (run to settle), a 60 s step,
// which leaves applications mid-flight for the revision routes, or
// none, as in merynd's wall mode, where only the clock steps move time.
func modelMutator(sess *core.Session, mode byte) func() {
	switch mode % 3 {
	case 0:
		return func() { sess.RunToSettle() }
	case 1:
		return func() { sess.Step(sess.Now() + sim.Seconds(60)) }
	}
	return nil
}

// modelSeal is a copy of the state dir taken right after a seal, with
// the live digest the seal describes.
type modelSeal struct {
	files  map[string][]byte
	digest uint64
}

// modelResult counts what a model run did.
type modelResult struct {
	ops     map[string]int // requests and steps issued, by kind
	records int            // journal records
	failed  int            // records whose apply failed
}

// runModel drives the control-plane sequence data encodes through
// Server.Handler with a durable store, on a batch VC and a serverless
// VC. The first byte picks the OnMutate hook; every further 4 bytes
// are one operation: one of the six mutating routes (valid or not, on
// known apps or not), a seal, which also copies the state dir, or a
// wall-clock step through Server.Step. It fails t if a request answers
// 5xx, if replaying the whole journal on a fresh platform does not
// reproduce the live digest, or if recovering a state dir copy does not
// verify its seal and reproduce the live digest taken with it.
func runModel(t testing.TB, data []byte) modelResult {
	t.Helper()
	res := modelResult{ops: map[string]int{}}
	if len(data) == 0 {
		return res
	}
	mode := data[0]
	data = data[1:]
	dir := t.TempDir()
	store, err := durable.Open(dir, modelMeta)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := mixedSession(t)
	srv := New(sess, Config{OnMutate: modelMutator(sess, mode), Store: store})
	h := srv.Handler()

	var (
		ids   []string
		seals []modelSeal
		n     int // fresh-ID counter
	)
	post := func(kind, path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		res.ops[kind]++
		if kind == "submit" && rec.Code == http.StatusCreated {
			var st api.AppStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0], int(data[1]), int(data[2]), int(data[3])
		target := "ghost"
		if len(ids) > 0 && a%8 != 7 {
			target = ids[a%len(ids)]
		}
		app := "/v1/apps/" + target
		switch op % 11 {
		case 0, 1:
			id := fmt.Sprintf(`"id":"m%d",`, n)
			switch {
			case a%4 == 0 && len(ids) > 0:
				id = fmt.Sprintf(`"id":%q,`, target) // a retry
			case a%4 == 1:
				id = "" // the server assigns one
			default:
				n++
			}
			typ := "batch"
			if b%16 == 15 {
				typ = "warp"
			}
			at := sim.ToSeconds(sess.Now()) + float64(b%3*50) // due now, or later
			post("submit", "/v1/apps", fmt.Sprintf(`{%s"type":%q,"vms":%d,"work_s":%d,"submit_at_s":%g}`,
				id, typ, 1+b%3, 300+100*(c%10), at))
		case 2:
			n++
			post("submit", "/v1/apps", fmt.Sprintf(`{"id":"f%d","type":"serverless","vc":"fn1","replicas":2,`+
				`"svc_rate":10,"duration_s":%d,"cold_start_s":5,"conc_target":1,"idle_window_s":120,`+
				`"declared_peak":8,"load":{"base":8,"on_off_period_s":120,"on_off_active_s":60}}`, n, 600+60*(c%10)))
		case 3, 4:
			post("accept", app+"/accept", fmt.Sprintf(`{"offer_index":%d}`, b%5))
		case 5:
			body := []string{`{"deadline_s":%d}`, `{"price":%d}`, `{"deadline_s":%d,"price":1}`}[b%3]
			post("counter", app+"/counter", fmt.Sprintf(body, 400+40*c))
		case 6:
			post("reject", app+"/reject", "")
		case 7:
			name := fmt.Sprintf("v%d", b%3)
			if c%16 == 15 {
				name = ""
			}
			post("deploy", app+"/revisions", fmt.Sprintf(`{"name":%q}`, name))
		case 8:
			names := []string{"rev-1", "v0", "v1", "v2"}
			w := c % 101
			post("traffic", app+"/traffic", fmt.Sprintf(`{"weights":{%q:%d,%q:%d}}`,
				names[b%4], w, names[(b/4)%4], 100-w))
		case 9:
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			seals = append(seals, modelSeal{files: readDir(t, dir), digest: sess.Digest()})
			res.ops["seal"]++
		case 10:
			srv.Step(sess.Now() + sim.Seconds(float64(1+a%8)*15))
			res.ops["step"]++
		}
	}

	live, now := sess.Digest(), sess.Now()
	store.Close()
	again, err := durable.Open(dir, modelMeta)
	if err != nil {
		t.Fatal(err)
	}
	recs := again.Records()
	again.Close()
	replayed := mixedSession(t)
	stats := durable.Replay(replayed, recs, modelMutator(replayed, mode))
	if now > replayed.Now() {
		replayed.Step(now)
	}
	if got := replayed.Digest(); got != live {
		t.Fatalf("replaying %d records: digest %016x, live %016x\nfailed applies: %v", len(recs), got, live, stats.Errors)
	}
	res.records, res.failed = len(recs), stats.Failed

	for i, sl := range seals {
		d := t.TempDir()
		for name, b := range sl.files {
			if err := os.WriteFile(filepath.Join(d, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := durable.Open(d, modelMeta)
		if err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		recovered := mixedSession(t)
		_, err = durable.Recover(recovered, st.Records(), st.LastCheckpoint(), modelMutator(recovered, mode))
		st.Close()
		if err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if got := recovered.Digest(); got != sl.digest {
			t.Fatalf("seal %d: recovered digest %016x, live %016x", i, got, sl.digest)
		}
	}
	return res
}

// readDir reads every file of a state dir.
func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// modelSequence is the 150-operation sequence seed encodes.
func modelSequence(seed int64) []byte {
	data := make([]byte, 1+150*4)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestControlPlaneModel: over 40 seeded sequences of 150 operations,
// each mixing all six mutating routes with seals and clock steps, the
// live state, the state replayed from the whole journal and the state
// recovered from each seal's copy of the state dir agree digest for
// digest.
func TestControlPlaneModel(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res := runModel(t, modelSequence(seed))
		for _, kind := range []string{"submit", "accept", "counter", "reject", "deploy", "traffic", "seal", "step"} {
			if res.ops[kind] == 0 {
				t.Errorf("seed %d: no %s operation", seed, kind)
			}
		}
		if res.failed == 0 || res.failed == res.records {
			t.Errorf("seed %d: %d of %d records failed their apply; want some, not all", seed, res.failed, res.records)
		}
		t.Logf("seed %d: %d records, %d failed their apply, %d seals", seed, res.records, res.failed, res.ops["seal"])
	}
}

// FuzzControlPlane: for any operation sequence, no request answers
// 5xx, and the replayed and recovered states reproduce the live ones.
func FuzzControlPlane(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(modelSequence(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+64*4 {
			data = data[:1+64*4] // at most 64 operations per execution
		}
		runModel(t, data)
	})
}
