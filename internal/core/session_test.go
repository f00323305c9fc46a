package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"meryn/internal/framework"
	"meryn/internal/metrics"
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

// A job submitted straight to a VC's framework has no owner: its start
// and finish events reach the Cluster Manager's callbacks, which must
// leave every ledger record, counter, gauge and session event as they
// were.
func TestUnownedJobTouchesNoApplication(t *testing.T) {
	p, s := openTestSession(t)
	if _, err := s.SubmitWith(sessionApp("owned"), nil); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("did not settle")
	}
	cm, _ := p.CM("vc1")
	var recs []metrics.AppRecord
	for _, rec := range p.Ledger.All() {
		recs = append(recs, *rec)
	}
	counters, events, avail := p.Counters, len(s.EventsSince(0)), cm.avail
	private, cloud := p.PrivateUsed.Series().Len(), p.CloudUsed.Series().Len()

	j := &framework.Job{ID: "stray", VMs: 1, Work: 600}
	if err := cm.Framework().Submit(j); err != nil {
		t.Fatal(err)
	}
	s.Step(p.Eng.Now() + sim.Seconds(3600))
	if j.State != framework.JobDone || !j.Started {
		t.Fatalf("stray job is %v (started %v), want it run to the end", j.State, j.Started)
	}

	for i, rec := range p.Ledger.All() {
		if i >= len(recs) || *rec != recs[i] {
			t.Fatalf("ledger record %d changed or appeared: %+v", i, *rec)
		}
	}
	if len(p.Ledger.All()) != len(recs) {
		t.Fatalf("ledger holds %d records, want %d", len(p.Ledger.All()), len(recs))
	}
	if p.Counters != counters {
		t.Fatalf("counters moved: %+v, want %+v", p.Counters, counters)
	}
	if n := len(s.EventsSince(0)); n != events {
		t.Fatalf("session logged %d events, want %d", n, events)
	}
	if cm.avail != avail {
		t.Fatalf("avail = %d, want %d", cm.avail, avail)
	}
	if p.PrivateUsed.Series().Len() != private || p.CloudUsed.Series().Len() != cloud {
		t.Fatal("a usage gauge moved for a job no application owns")
	}
}

// An interactive submission accepted through its handle logs its whole
// lifecycle in its own session: the job events find the session through
// the application, not through whichever session is open.
func TestInteractiveSubmissionLogsLifecycle(t *testing.T) {
	_, s := openTestSession(t)
	g := submitOffered(t, s, "app-1")
	if _, err := g.Accept(0); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("did not settle after accept")
	}
	var kinds []string
	for _, ev := range s.EventsSince(0) {
		if ev.AppID == "app-1" {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"submitted", "offers", "agreed", "started", "completed"}
	if !slices.Equal(kinds, want) {
		t.Fatalf("app-1 logged %v, want %v", kinds, want)
	}
}

// After Drain closes a session, a second session on the same platform
// runs its own applications, and the first session's event log does
// not change.
func TestSecondSessionLeavesFirstLogAlone(t *testing.T) {
	p, s1 := openTestSession(t)
	for i := 0; i < 3; i++ {
		if _, err := s1.SubmitWith(sessionApp(fmt.Sprintf("first-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	log1 := s1.EventsSince(0)
	s2, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s2.SubmitWith(sessionApp(fmt.Sprintf("second-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := s1.EventsSince(0); !slices.Equal(got, log1) {
		t.Fatalf("the first session's log changed from %d to %d events", len(log1), len(got))
	}
	completed := 0
	for _, ev := range s2.EventsSince(0) {
		if !strings.HasPrefix(ev.AppID, "second-") {
			t.Fatalf("the second session logged %s for %s", ev.Kind, ev.AppID)
		}
		if ev.Kind == "completed" {
			completed++
		}
	}
	if completed != 3 {
		t.Fatalf("the second session logged %d completions, want 3", completed)
	}
}

// TestEventsSinceAcrossChunks reads the event log at every cursor that
// matters to its chunked storage (a chunk's first and last record, the
// record past a boundary, the end) and compares each read with the
// matching suffix of the whole log. The whole log, 1780 events over
// fourteen chunks, is pinned by a hash recorded before the log was
// chunked.
func TestEventsSinceAcrossChunks(t *testing.T) {
	p := newPlatform(t, onevcConfig(10))
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	// At least four events per application: submitted, agreed, started,
	// completed.
	for i := 0; i < 300; i++ {
		if _, err := s.SubmitWith(batchApp(fmt.Sprintf("app-%03d", i), "vc1", float64(i*10), 300), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	all := s.EventsSince(-1)
	if len(all) <= 2*eventChunkLen+1 {
		t.Fatalf("%d events, want more than two chunks of %d", len(all), eventChunkLen)
	}
	if got, want := eventLogHash(all), "83a56dda204f06ad69f139c5870db3871ffede4a9a9036bc2940ae1dbdbbc396"; got != want {
		t.Fatalf("%d events hash to %s, want %s", len(all), got, want)
	}
	for i, ev := range all {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
	for _, seq := range []int{0, 1, eventChunkLen - 1, eventChunkLen, eventChunkLen + 1,
		2 * eventChunkLen, 2*eventChunkLen + 1, len(all) - 1, len(all), len(all) + 5} {
		got := s.EventsSince(seq)
		var want []SessionEvent
		if seq < len(all) {
			want = all[seq:]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("EventsSince(%d) = %d events, want the log's last %d", seq, len(got), len(want))
		}
	}
}

// recountNegRounds sums the completed rounds of every submission whose
// handle holds its negotiation machine: the walk Metrics made on every
// call before it kept a running sum.
func recountNegRounds(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range s.order {
		if g := s.negs[id]; g.m != nil {
			n += g.m.Round()
		}
	}
	return n
}

// TestNegRoundsRunningSum checks the running sum of negotiation rounds
// that Metrics reports against a recount over every submission: after
// the mixed workload, and after each interactive counter, one of which
// exhausts MaxRounds. A strategy-driven negotiation keeps no machine on
// its handle, so only the sum sees its rounds.
func TestNegRoundsRunningSum(t *testing.T) {
	p := newPlatform(t, mixedConfig())
	s, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range mixedWorkload() {
		if _, err := s.SubmitWith(app, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Metrics().NegRounds, recountNegRounds(s); got != want {
		t.Fatalf("mixed workload: NegRounds = %d, recount %d", got, want)
	}

	_, s = openTestSession(t)
	check := func(step string) {
		t.Helper()
		if got, want := s.Metrics().NegRounds, recountNegRounds(s); got != want {
			t.Fatalf("%s: NegRounds = %d, recount %d", step, got, want)
		}
	}
	g1 := submitOffered(t, s, "app-1")
	g2 := submitOffered(t, s, "app-2")
	if _, err := g1.Counter(0, g1.Offers()[0].Price); err != nil {
		t.Fatal(err)
	}
	check("one counter")
	if _, err := g1.Counter(0, 0); err == nil {
		t.Fatal("empty counter succeeded")
	}
	check("an empty counter")
	var lastErr error
	for i := 0; i < sla.MaxRounds && lastErr == nil; i++ {
		_, lastErr = g2.Counter(0, 1) // impossible budget
		check(fmt.Sprintf("exhausting counter %d", i+1))
	}
	if !errors.Is(lastErr, sla.ErrNoAgreement) {
		t.Fatalf("exhausting rounds: err = %v, want ErrNoAgreement", lastErr)
	}
	if got := s.Metrics().NegRounds; got != 1+sla.MaxRounds {
		t.Fatalf("NegRounds = %d, want %d", got, 1+sla.MaxRounds)
	}
	if _, err := g1.Accept(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitWith(sessionApp("app-3"), sla.DeadlineBound{Deadline: sim.Seconds(1e6)}); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("did not settle")
	}
	if got, want := s.Metrics().NegRounds, recountNegRounds(s)+1; got != want {
		t.Fatalf("after a one-round strategy: NegRounds = %d, want the recount plus one, %d", got, want)
	}
}

// TestSubmitRejectsCompletedID: the batch framework forgets a finished
// job, but the session still refuses a new submission under the ID of
// an application that completed.
func TestSubmitRejectsCompletedID(t *testing.T) {
	p, s := openTestSession(t)
	if _, err := s.SubmitWith(sessionApp("done"), nil); err != nil {
		t.Fatal(err)
	}
	if !s.RunToSettle() {
		t.Fatal("did not settle")
	}
	if st, _ := s.Status("done"); st.Phase != PhaseCompleted {
		t.Fatalf("phase = %s, want completed", st.Phase)
	}
	cm, _ := p.CM("vc1")
	if _, ok := cm.Framework().Get("done"); ok {
		t.Fatal("the batch framework still holds the finished job")
	}
	if _, err := s.SubmitWith(sessionApp("done"), nil); err == nil {
		t.Fatal("SubmitWith accepted the ID of a completed application")
	}
	if _, err := s.Submit(sessionApp("done")); err == nil {
		t.Fatal("Submit accepted the ID of a completed application")
	}
}
