package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestScaleInvariantJSON marshals the scale experiment's default
// (non-bench) output across shard and worker counts and demands the
// bytes agree: the committed artifact's contract is that -shards and
// -workers are performance knobs, never result axes.
func TestScaleInvariantJSON(t *testing.T) {
	ladder := []int{320, 640}
	var base []byte
	var baseLabel string
	for _, v := range []struct{ shards, workers int }{
		{1, 1}, {8, 1}, {1, 8}, {4, 8},
	} {
		label := fmt.Sprintf("shards=%d/workers=%d", v.shards, v.workers)
		res, err := Scale(7, Options{Shards: v.shards, Workers: v.workers, ScaleApps: ladder})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", label, err)
		}
		if base == nil {
			base, baseLabel = b, label
			if res.Bench != nil {
				t.Fatal("invariant mode must not include bench timings")
			}
			continue
		}
		if !bytes.Equal(b, base) {
			t.Errorf("%s: JSON diverged from %s:\n got %s\nwant %s", label, baseLabel, b, base)
		}
	}
}

// TestScaleBenchSmoke runs benchmark mode on a tiny ladder: digests
// must agree across the shard counts 1/4/8 (the run fails internally
// otherwise) and the rendered table must carry the timing grid.
func TestScaleBenchSmoke(t *testing.T) {
	res, err := Scale(7, Options{ScaleApps: []int{192}, ScaleBench: true, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bench == nil || len(res.Bench.Cells) != 3 {
		t.Fatalf("bench grid = %+v", res.Bench)
	}
	if res.Bench.Cores <= 0 {
		t.Fatal("bench must record the host core count")
	}
	out := res.Render()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "192") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

// TestScaleEventsPerApp pins the single engine's event budget on the
// scale scenario: exactly five events per application — arrival, Client
// Manager transfer, negotiation, dispatch and job finish — because the
// event-driven Application Controllers of these on-time batch jobs never
// need to wake. Polling controllers fired 44 per application; gating the
// event-driven discipline again fails here, with the digest unchanged.
func TestScaleEventsPerApp(t *testing.T) {
	const apps = 2000
	pt, _, fired, err := scaleRun(42, apps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Digest != "ad1460a83f367dad" {
		t.Fatalf("digest %s, want ad1460a83f367dad", pt.Digest)
	}
	if fired != 5*apps {
		t.Fatalf("%d events for %d apps (%.2f per app), want exactly 5 per app",
			fired, apps, float64(fired)/apps)
	}
}

// TestParseAppsList covers the -scale-apps flag parser.
func TestParseAppsList(t *testing.T) {
	got, err := ParseAppsList("1000, 100000,1000000")
	if err != nil || len(got) != 3 || got[2] != 1000000 {
		t.Fatalf("got %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-5", "x", "10,"} {
		if _, err := ParseAppsList(bad); err == nil && bad != "10," {
			t.Errorf("ParseAppsList(%q): want error", bad)
		}
	}
}
