package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

func openTestSession(t *testing.T) (*Platform, *Session) {
	t.Helper()
	p, err := NewPlatform(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func sessionApp(id string) workload.App {
	return workload.App{ID: id, Type: workload.TypeBatch, VC: "vc1", VMs: 1, Work: 600}
}

// submitOffered schedules an interactive submission and drives the
// engine to the offer stage.
func submitOffered(t *testing.T, s *Session, id string) *Negotiation {
	t.Helper()
	g, err := s.Submit(sessionApp(id))
	if err != nil {
		t.Fatal(err)
	}
	if st := g.State(); st != NegotiationPending {
		t.Fatalf("fresh submission state = %s", st)
	}
	if err := g.Await(); err != nil {
		t.Fatal(err)
	}
	if st := g.State(); st != NegotiationOffered {
		t.Fatalf("awaited submission state = %s", st)
	}
	return g
}

func TestSessionInteractiveLifecycle(t *testing.T) {
	_, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")

	offers := g.Offers()
	if len(offers) == 0 {
		t.Fatal("no offers on the table")
	}
	c, err := g.Accept(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVMs != offers[0].NumVMs || c.Price != offers[0].Price {
		t.Fatalf("contract %+v does not match accepted offer %+v", c, offers[0])
	}
	if !s.RunToSettle() {
		t.Fatal("did not settle after accept")
	}
	st, err := s.Status("app-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseCompleted {
		t.Fatalf("phase = %s, want %s", st.Phase, PhaseCompleted)
	}
	if st.Cost <= 0 || st.EndTime <= st.StartTime {
		t.Fatalf("implausible accounting in %+v", st)
	}
}

func TestSessionDoubleAccept(t *testing.T) {
	_, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")
	if _, err := g.Accept(0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Accept(0); err == nil {
		t.Fatal("second Accept succeeded")
	}
	// The app still settles normally: the duplicate accept changed nothing.
	if !s.RunToSettle() {
		t.Fatal("did not settle")
	}
}

func TestSessionAcceptAfterReject(t *testing.T) {
	p, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")
	if err := g.Reject(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Accept(0); err == nil {
		t.Fatal("Accept after Reject succeeded")
	}
	if err := g.Reject(); err == nil {
		t.Fatal("double Reject succeeded")
	}
	if g.State() != NegotiationRejected {
		t.Fatalf("state = %s", g.State())
	}
	if !s.Settled() {
		t.Fatal("rejected submission did not settle")
	}
	if p.Counters.Rejections.Count != 1 {
		t.Fatalf("rejections = %d", p.Counters.Rejections.Count)
	}
}

func TestSessionOffersAfterDrain(t *testing.T) {
	_, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	// Drain walks away from the open negotiation.
	if g.State() != NegotiationRejected {
		t.Fatalf("state after drain = %s", g.State())
	}
	if g.Offers() != nil {
		t.Fatalf("offers after drain = %v, want nil", g.Offers())
	}
	if _, err := g.Accept(0); err == nil {
		t.Fatal("Accept after drain succeeded")
	}
	if res.Counters.Rejections.Count != 1 {
		t.Fatalf("rejections = %d", res.Counters.Rejections.Count)
	}
	// The session is closed: no further submissions or drains.
	if _, err := s.Submit(sessionApp("late")); err == nil {
		t.Fatal("Submit after drain succeeded")
	}
	if _, err := s.Drain(); err == nil {
		t.Fatal("second Drain succeeded")
	}
}

func TestSessionConcurrentSubmit(t *testing.T) {
	_, s := openTestSession(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	negs := make([]*Negotiation, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Submit(sessionApp(fmt.Sprintf("conc-%02d", i)))
			if err != nil {
				errs[i] = err
				return
			}
			if err := g.Await(); err != nil {
				errs[i] = err
				return
			}
			if _, err := g.Accept(0); err != nil {
				errs[i] = err
				return
			}
			negs[i] = g
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Ledger.All()); got != n {
		t.Fatalf("ledger records = %d, want %d", got, n)
	}
	for i, g := range negs {
		if g.State() != NegotiationAccepted {
			t.Fatalf("negotiation %d state = %s", i, g.State())
		}
	}
}

func TestSessionCounterRounds(t *testing.T) {
	_, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")
	first := g.Offers()

	// Impose a budget equal to the uniform price: the provider answers
	// with its fastest conforming offer.
	offers, err := g.Counter(0, first[0].Price)
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Price > first[0].Price {
		t.Fatalf("counter offers = %+v", offers)
	}
	if g.Round() != 1 {
		t.Fatalf("round = %d", g.Round())
	}
	// An empty response is an error and does not burn the negotiation.
	if _, err := g.Counter(0, 0); err == nil {
		t.Fatal("empty counter succeeded")
	}
	if _, err := g.Accept(0); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("did not settle")
	}
}

func TestSessionCounterExhaustsRounds(t *testing.T) {
	_, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")
	var lastErr error
	for i := 0; i < sla.MaxRounds; i++ {
		_, lastErr = g.Counter(0, 1) // impossible budget, never agreeable
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, sla.ErrNoAgreement) {
		t.Fatalf("exhausting rounds: err = %v, want ErrNoAgreement", lastErr)
	}
	if g.State() != NegotiationRejected {
		t.Fatalf("state = %s", g.State())
	}
	if !s.Settled() {
		t.Fatal("failed negotiation did not settle")
	}
}

func TestSessionRoutingRejection(t *testing.T) {
	_, s := openTestSession(t)
	// No VC hosts mapreduce on the default two-batch-VC platform.
	g, err := s.Submit(workload.App{ID: "mr-1", Type: workload.TypeMapReduce, MapTasks: 4, MapWork: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Await(); err != nil {
		t.Fatal(err)
	}
	if g.State() != NegotiationRejected {
		t.Fatalf("state = %s", g.State())
	}
	st, err := s.Status("mr-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseRejected || st.Rejection == "" {
		t.Fatalf("status = %+v", st)
	}
}

func TestSessionSubmitValidation(t *testing.T) {
	_, s := openTestSession(t)
	if _, err := s.Submit(workload.App{Type: workload.TypeBatch}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := s.Submit(workload.App{ID: "x", Type: workload.TypeBatch, VC: "nope"}); err == nil {
		t.Fatal("unknown VC accepted")
	}
	if _, err := s.Submit(sessionApp("dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(sessionApp("dup")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestSessionSingleOpen(t *testing.T) {
	p, s := openTestSession(t)
	if _, err := p.Open(); err == nil {
		t.Fatal("second Open succeeded with a session already open")
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Draining frees the slot.
	if _, err := p.Open(); err != nil {
		t.Fatalf("Open after drain: %v", err)
	}
}

// TestSessionStatusPhases walks one app through pending → negotiating →
// queued/running → completed via explicit Step calls.
func TestSessionStatusPhases(t *testing.T) {
	_, s := openTestSession(t)
	g, err := s.Submit(sessionApp("app-1"))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status("app-1")
	if st.Phase != PhasePending {
		t.Fatalf("phase = %s, want pending", st.Phase)
	}
	if err := g.Await(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Status("app-1")
	if st.Phase != PhaseNegotiating || len(st.Offers) == 0 {
		t.Fatalf("phase = %s offers = %d", st.Phase, len(st.Offers))
	}
	if _, err := g.Accept(0); err != nil {
		t.Fatal(err)
	}
	// Step a little: negotiation + dispatch latencies are < 60 s.
	s.Step(s.Now() + sim.Seconds(60))
	st, _ = s.Status("app-1")
	if st.Phase != PhaseRunning {
		t.Fatalf("phase after dispatch window = %s, want running", st.Phase)
	}
	s.Step(s.Now() + sim.Seconds(3600))
	st, _ = s.Status("app-1")
	if st.Phase != PhaseCompleted {
		t.Fatalf("final phase = %s", st.Phase)
	}
}

// TestEventsSinceNegativeCursor guards the remotely-reachable cursor
// path (GET /v1/events?since=-1): negative means "from the beginning".
func TestEventsSinceNegativeCursor(t *testing.T) {
	_, s := openTestSession(t)
	submitOffered(t, s, "app-1")
	all := s.EventsSince(0)
	if len(all) == 0 {
		t.Fatal("no events logged")
	}
	neg := s.EventsSince(-5)
	if len(neg) != len(all) {
		t.Fatalf("EventsSince(-5) = %d events, want %d", len(neg), len(all))
	}
}

// TestRunErrorDoesNotWedgePlatform: a bad workload entry must not
// leave the wrapper's session open forever.
func TestRunErrorDoesNotWedgePlatform(t *testing.T) {
	p, err := NewPlatform(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dup := workload.Workload{sessionApp("same"), sessionApp("same")}
	if _, err := p.Run(dup); err == nil {
		t.Fatal("duplicate-ID workload succeeded")
	}
	// The platform is still usable.
	if _, err := p.Run(workload.Workload{sessionApp("fresh")}); err != nil {
		t.Fatalf("Run after failed Run: %v", err)
	}
}

// TestRunMatchesSessionComposition verifies the wrapper claim directly:
// Platform.Run and a hand-rolled Open/SubmitWith/Drain sequence produce
// identical results on identical platforms.
func TestRunMatchesSessionComposition(t *testing.T) {
	w := workload.Paper(workload.DefaultPaperConfig())

	p1, err := NewPlatform(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	p2, err := NewPlatform(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p2.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if _, err := s.SubmitWith(w[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if r1.EventsFired != r2.EventsFired {
		t.Fatalf("events fired: Run=%d session=%d", r1.EventsFired, r2.EventsFired)
	}
	if r1.CompletionTime != r2.CompletionTime || r1.CloudSpend != r2.CloudSpend {
		t.Fatalf("Run %+v != session %+v", r1, r2)
	}
	a, b := r1.Ledger.All(), r2.Ledger.All()
	if len(a) != len(b) {
		t.Fatalf("records: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("record %d differs:\nRun:     %+v\nsession: %+v", i, *a[i], *b[i])
		}
	}
}

// TestAgreedDetailMatchesFmt: the "agreed" event detail is built
// without fmt but keeps the bytes of its "%d VMs for %.0f units",
// including %.0f's round-half-to-even (0.5 and 2.5 round down, 1.5 up).
func TestAgreedDetailMatchesFmt(t *testing.T) {
	for _, vms := range []int{0, 1, 10, 1000} {
		for _, price := range []float64{0, 0.5, 1.5, 2.5, 0.49999999, 1551.5, 12345.678, 1e21} {
			if got, want := agreedDetail(vms, price), fmt.Sprintf("%d VMs for %.0f units", vms, price); got != want {
				t.Errorf("agreedDetail(%d, %g) = %q, want %q", vms, price, got, want)
			}
		}
	}
}
