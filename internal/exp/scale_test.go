package exp

import (
	"strings"
	"testing"
)

// TestScaleBenchSmoke runs benchmark mode on a tiny ladder: one timed
// cell per rung whose digest must agree across reps (the run fails
// internally otherwise), and a rendered table carrying the timings.
func TestScaleBenchSmoke(t *testing.T) {
	res, err := Scale(7, Options{ScaleApps: []int{192, 320}, ScaleBench: true, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bench == nil || len(res.Bench.Cells) != 2 || len(res.Points) != 2 {
		t.Fatalf("bench grid = %+v, points = %d", res.Bench, len(res.Points))
	}
	for i, c := range res.Bench.Cells {
		if c.Apps != res.Ladder[i] || c.Reps != 2 || c.EventsFired == 0 {
			t.Fatalf("cell %d = %+v", i, c)
		}
	}
	if res.Bench.Cores <= 0 {
		t.Fatal("bench must record the host core count")
	}
	out := res.Render()
	if !strings.Contains(out, "wall(ms)") || !strings.Contains(out, "192") {
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
	pt, _, fired, err := scaleRun(42, apps)
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
