package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"testing"

	"meryn/internal/cloud"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/workload"
)

// referenceDigest is the fmt formulation of Session.Digest. Its format
// strings define the bytes the digest hashes, and so every digest
// recorded in journals, seals and tests; Digest must hash the same
// bytes.
func referenceDigest(s *Session) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("t=%d;", s.p.Eng.Now())
	for _, id := range s.order {
		referenceDigestStatus(h, s.negs[id].statusLocked())
	}
	for _, name := range s.p.cmOrder {
		cm := s.p.cms[name]
		w("vc=%s|%s|%d|%d|%d|%d|%d;", cm.name, cm.cfg.Type, cm.cfg.InitialVMs,
			cm.avail, cm.OwnedPrivate, len(cm.attached), cm.accepted)
	}
	w("m=%d|%d|%d|%d;", s.p.PrivateUsed.Value(), s.p.CloudUsed.Value(),
		len(s.order), len(s.order)-s.p.remaining)
	for _, prov := range s.p.Clouds {
		w("cloud=%g|%g;", prov.TotalSpend, prov.SpotSpend)
	}
	rv := reflect.ValueOf(&s.p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			w("c%d=%d;", i, c.Count)
		}
	}
	return h.Sum64()
}

func referenceDigestStatus(h io.Writer, st AppStatus) {
	fmt.Fprintf(h, "app=%s|%s|%s|%s|%d|%q;", st.ID, st.VC, st.Type, st.Phase, st.Round, st.Rejection)
	for _, o := range st.Offers {
		fmt.Fprintf(h, "o=%d|%d|%g;", o.NumVMs, o.Deadline, o.Price)
	}
	if c := st.Contract; c != nil {
		fmt.Fprintf(h, "k=%d|%d|%g|%g|%d|%g|%g;", c.NumVMs, c.Deadline, c.Price, c.VMPrice, c.ExecEst, c.PenaltyN, c.MaxPenaltyFrac)
		if c.SLO != nil {
			fmt.Fprintf(h, "slo=%d|%g|%d|%g;", c.SLO.TargetP95, c.SLO.Availability, c.SLO.Interval, c.SLO.PenaltyPerInterval)
		}
	}
	fmt.Fprintf(h, "x=%d|%d|%d|%d|%g|%g|%g|%d|%d|%d|%d;", st.SubmitTime, st.StartTime, st.EndTime,
		st.Deadline, st.Price, st.Penalty, st.Cost, st.NumVMs, st.Placement, st.Replicas, st.Suspensions)
}

// openPaper opens a session on the paper platform under policy and
// submits the paper workload, self-resolving; virtual time stays at 0.
func openPaper(tb testing.TB, policy Policy, seed int64) *Session {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.Seed = seed
	p, err := NewPlatform(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := p.Open()
	if err != nil {
		tb.Fatal(err)
	}
	for _, app := range workload.Paper(workload.DefaultPaperConfig()) {
		if _, err := s.SubmitWith(app, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// submitAll submits w, self-resolving, and drains the session.
func submitAll(t *testing.T, s *Session, w workload.Workload) {
	t.Helper()
	for _, app := range w {
		if _, err := s.SubmitWith(app, nil); err != nil {
			t.Fatalf("submit %s: %v", app.ID, err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

func checkDigest(t *testing.T, what string, s *Session) {
	t.Helper()
	if got, want := s.Digest(), referenceDigest(s); got != want {
		t.Errorf("%s: Digest %016x, reference %016x", what, got, want)
	}
}

// statuses returns every submission's snapshot.
func statuses(t *testing.T, s *Session) []AppStatus {
	t.Helper()
	var out []AppStatus
	for _, id := range s.Apps() {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// TestDigestMatchesReference: Digest hashes the bytes of the fmt
// reference on sessions that reach every record and verb: paper runs
// mid-burst and drained, the mixed workload, a service contract, a
// spot market's fractional spend, open and countered offers, and
// rejections.
func TestDigestMatchesReference(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		for _, policy := range []Policy{PolicyMeryn, PolicyStatic} {
			s := openPaper(t, policy, 1)
			for _, at := range []float64{0, 100, 300, 900} {
				s.Step(sim.Seconds(at))
				checkDigest(t, fmt.Sprintf("%s at %g s", policy, at), s)
			}
			if _, err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, policy.String()+" drained", s)
		}
	})
	t.Run("mixed", func(t *testing.T) {
		s, err := newPlatform(t, mixedConfig()).Open()
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, s, mixedWorkload())
		checkDigest(t, "mixed workload", s)
	})
	t.Run("service", func(t *testing.T) {
		s, err := newPlatform(t, serviceTestConfig(1)).Open()
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, s, workload.Workload{steadyService("web-0", 4, 10, 1200, 25)})
		if c := statuses(t, s)[0].Contract; c == nil || c.SLO == nil {
			t.Fatalf("service contract %+v carries no SLO", c)
		}
		checkDigest(t, "service contract", s)
	})
	t.Run("spot", func(t *testing.T) {
		cfg := spotVCConfig(workload.TypeBatch, 1)
		cfg.Seed = 5
		cfg.Clouds[0].Market = &cloud.MarketConfig{
			Volatility: 0.3, Reversion: 0.2, Floor: 0.5, Tick: sim.Seconds(30),
		}
		p := newPlatform(t, cfg)
		s, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		submitAll(t, s, workload.Workload{batchApp("a", "vc1", 0, 3000), batchApp("b", "vc1", 10, 3000)})
		if spend := p.Clouds[0].TotalSpend; spend == math.Trunc(spend) {
			t.Fatalf("cloud spend %g is whole; the case needs a fractional %%g", spend)
		}
		checkDigest(t, "spot market", s)
	})
	t.Run("interactive", func(t *testing.T) {
		_, s := openTestSession(t)
		submitOffered(t, s, "held")
		countered := submitOffered(t, s, "countered")
		if _, err := countered.Counter(0, countered.Offers()[0].Price); err != nil {
			t.Fatal(err)
		}
		if err := submitOffered(t, s, "walked-away").Reject(); err != nil {
			t.Fatal(err)
		}
		// No VC hosts mapreduce: the Cluster Manager rejects it with a
		// reason that %q escapes.
		g, err := s.Submit(workload.App{ID: "mr-\"ü\"\t1", Type: workload.TypeMapReduce, MapTasks: 4, MapWork: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Await(); err != nil {
			t.Fatal(err)
		}
		// Prices of a million units and more take an exponent under %g.
		huge := sessionApp("huge")
		huge.Work = 1e9
		if g, err = s.Submit(huge); err != nil {
			t.Fatal(err)
		}
		if err := g.Await(); err != nil {
			t.Fatal(err)
		}
		st := statuses(t, s)
		if len(st[0].Offers) == 0 || st[1].Round == 0 || st[2].Rejection == "" || st[3].Rejection == "" ||
			len(st[4].Offers) == 0 || st[4].Offers[0].Price < 1e6 {
			t.Fatalf("statuses %+v do not hold offers, a counter, two rejections and a price of 1e6 or more", st)
		}
		checkDigest(t, "open negotiations", s)
	})
}

// TestDigestAllocsZero: hashing a drained paper session allocates
// nothing.
func TestDigestAllocsZero(t *testing.T) {
	s := openPaper(t, PolicyMeryn, 1)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Digest() }); allocs != 0 {
		t.Fatalf("Digest allocates %v times per call, want 0", allocs)
	}
}
