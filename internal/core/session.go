package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"meryn/internal/framework"
	"meryn/internal/framework/serverless"
	"meryn/internal/metrics"
	"meryn/internal/sim"
	"meryn/internal/sla"
	"meryn/internal/workload"
)

// jobPhase maps a framework job state to the session-level phase.
func jobPhase(s framework.JobState) AppPhase {
	switch s {
	case framework.JobQueued:
		return PhaseQueued
	case framework.JobRunning:
		return PhaseRunning
	case framework.JobSuspended:
		return PhaseSuspended
	case framework.JobDone:
		return PhaseCompleted
	default:
		return PhasePlacing
	}
}

// NegotiationState is the lifecycle of one submission's SLA negotiation
// as seen through the session API.
type NegotiationState int

// Negotiation handle states.
const (
	// NegotiationPending: the submission is scheduled but has not yet
	// reached a Cluster Manager (client transfer in flight).
	NegotiationPending NegotiationState = iota
	// NegotiationOffered: the provider's proposal set is on the table.
	NegotiationOffered
	// NegotiationAccepted: a contract was agreed; the application is in
	// placement or execution (see Session.Status for its phase).
	NegotiationAccepted
	// NegotiationRejected: the submission will not run — validation
	// failed, no VC hosts the type, the user walked away, or the round
	// budget ran out.
	NegotiationRejected
)

// String implements fmt.Stringer.
func (s NegotiationState) String() string {
	switch s {
	case NegotiationPending:
		return "pending"
	case NegotiationOffered:
		return "offered"
	case NegotiationAccepted:
		return "accepted"
	case NegotiationRejected:
		return "rejected"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// AppPhase is an application's coarse position in its lifecycle,
// reported by Session.Status.
type AppPhase string

// Application phases.
const (
	PhasePending     AppPhase = "pending"     // scheduled, transfer in flight
	PhaseNegotiating AppPhase = "negotiating" // offers await a response
	PhaseRejected    AppPhase = "rejected"
	PhasePlacing     AppPhase = "placing" // contract agreed, resource selection running
	PhaseQueued      AppPhase = "queued"
	PhaseRunning     AppPhase = "running"
	PhaseSuspended   AppPhase = "suspended"
	PhaseCompleted   AppPhase = "completed"
)

// AppStatus is a point-in-time snapshot of one submission.
type AppStatus struct {
	ID    string
	VC    string
	Type  string
	Phase AppPhase

	// Negotiation view.
	Round     int         // completed negotiation rounds
	Offers    []sla.Offer // proposal set, non-nil while negotiating
	Contract  *sla.Contract
	Rejection string // why the submission was rejected ("" otherwise)

	// Execution view (from the accounting record; zero until reached).
	SubmitTime  sim.Time
	StartTime   sim.Time
	EndTime     sim.Time
	Deadline    sim.Time
	Price       float64
	Penalty     float64
	Cost        float64
	NumVMs      int
	Placement   metrics.Placement
	Replicas    int // current replicas (service applications)
	Suspensions int
}

// SessionEvent is one entry of the session's append-only event log: the
// control-plane's observable trace of submissions, negotiations and job
// lifecycle transitions.
type SessionEvent struct {
	Seq    int
	Time   sim.Time
	AppID  string
	Kind   string // submitted, offers, agreed, rejected, started, suspended, completed
	Detail string
}

// VCStatus is a point-in-time snapshot of one virtual cluster.
type VCStatus struct {
	Name         string
	Type         string
	InitialVMs   int
	Avail        int
	OwnedPrivate int
	Nodes        int
	Apps         int
}

// PlatformMetrics is a point-in-time snapshot of platform-wide gauges
// and counters.
type PlatformMetrics struct {
	Now         sim.Time
	PrivateUsed int
	CloudUsed   int
	CloudSpend  float64
	SpotSpend   float64 // spot-lease share of CloudSpend
	EventsFired uint64
	Submitted   int
	Settled     int
	AuditChecks int64 // invariant audits completed (0 when disabled)
	NegRounds   int   // completed negotiation rounds, summed over submissions
	Counters    Counters
}

// Session is an open submission window on a platform: applications
// arrive one by one through Submit, negotiate SLAs (interactively or
// strategy-driven), and the caller advances virtual time explicitly
// with Step or runs the platform dry with Drain. Platform.Run is a thin
// wrapper: Open, Submit every workload entry at its arrival time, Drain.
//
// All methods are safe for concurrent use; one mutex serializes access
// to the underlying single-threaded simulation engine.
type Session struct {
	p *Platform

	mu     sync.Mutex
	negs   map[string]*Negotiation
	order  []string // submission order
	events []SessionEvent
	closed bool
}

// Open starts a session on the platform. One session may be open at a
// time; Drain closes it.
func (p *Platform) Open() (*Session, error) {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	if p.session != nil {
		return nil, fmt.Errorf("core: a session is already open")
	}
	s := &Session{p: p, negs: make(map[string]*Negotiation)}
	p.session = s
	return s, nil
}

// Negotiation is a session's handle on one submission's SLA
// negotiation. Interactive submissions (Session.Submit) park here in
// NegotiationOffered until the caller responds with Accept, Counter or
// Reject; strategy-driven submissions (Session.SubmitWith, and every
// Platform.Run workload entry) pass through it already resolved.
type Negotiation struct {
	s           *Session
	appID       string
	interactive bool
	user        sla.User // strategy for non-interactive submissions (nil = platform default)

	state    NegotiationState
	cm       *ClusterManager
	st       *appState
	m        *sla.Negotiation
	contract *sla.Contract
	err      error
}

// submit registers and schedules one submission. Interactive
// submissions pause at the offer stage; otherwise the negotiation
// resolves with u (or the platform's configured strategy when u is nil)
// inside the submission event, exactly as the closed-world Run always
// did.
func (s *Session) submit(app workload.App, interactive bool, u sla.User) (*Negotiation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: session is drained")
	}
	if app.ID == "" {
		return nil, fmt.Errorf("core: submission without an ID")
	}
	if _, dup := s.negs[app.ID]; dup {
		return nil, fmt.Errorf("core: duplicate submission %q", app.ID)
	}
	if app.VC != "" {
		if _, ok := s.p.cms[app.VC]; !ok {
			return nil, fmt.Errorf("core: app %s targets unknown VC %q", app.ID, app.VC)
		}
	}
	g := &Negotiation{s: s, appID: app.ID, interactive: interactive, user: u}
	s.negs[app.ID] = g
	s.order = append(s.order, app.ID)
	s.p.remaining++
	// Work entered the platform: make sure an audit barrier is armed.
	// The timer disarms itself once the platform settles, so drained
	// engines still run dry.
	s.p.Audit.arm()
	s.p.Eng.At(app.SubmitAt, func() { s.p.Client.Submit(app, g) })
	s.emitLocked(app.ID, "submitted", "")
	return g, nil
}

// Submit schedules an interactive submission at the later of its
// SubmitAt and the current virtual time. The returned handle stays
// NegotiationPending until the submission pipeline reaches the offer
// stage (drive the engine with Step, or block on Negotiation.Await);
// it then waits in NegotiationOffered for Accept, Counter or Reject.
func (s *Session) Submit(app workload.App) (*Negotiation, error) {
	return s.submit(app, true, nil)
}

// SubmitWith schedules a submission whose negotiation self-resolves
// with the strategy u (nil: the platform's configured UserStrategy) the
// moment the Cluster Manager proposes offers.
func (s *Session) SubmitWith(app workload.App, u sla.User) (*Negotiation, error) {
	return s.submit(app, false, u)
}

// Step advances virtual time to the horizon, dispatching every event
// due on the way (standard DES semantics: the clock lands on the
// horizon even if the next event lies beyond it). It returns the new
// virtual time.
func (s *Session) Step(until sim.Time) sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed { // a drained session no longer drives the engine
		return s.p.Eng.Now()
	}
	return s.p.Eng.Run(until)
}

// RunToSettle dispatches events until every submitted application has
// settled (finished or been rejected) or no queued event can make
// progress — an open interactive negotiation, for example, stalls the
// settle until the user responds. It returns true when all settled.
func (s *Session) RunToSettle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.runToSettleLocked()
	}
	return s.p.remaining == 0
}

func (s *Session) runToSettleLocked() {
	for s.p.remaining > 0 && s.p.Eng.Step() {
	}
}

// Now returns the current virtual time.
func (s *Session) Now() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Eng.Now()
}

// Settled reports whether every submission has finished or been
// rejected.
func (s *Session) Settled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.remaining == 0
}

// Apps returns the submitted application IDs in submission order.
func (s *Session) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Negotiation returns the handle for one submission.
func (s *Session) Negotiation(appID string) (*Negotiation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.negs[appID]
	return g, ok
}

// EventsSince returns the session events with Seq > seq, oldest first.
// Negative cursors mean "from the beginning".
func (s *Session) EventsSince(seq int) []SessionEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq >= len(s.events) {
		return nil
	}
	out := make([]SessionEvent, len(s.events)-seq)
	copy(out, s.events[seq:])
	return out
}

// emitLocked appends to the event log. Callers hold s.mu (or run inside
// an engine step driven under it).
func (s *Session) emitLocked(appID, kind, detail string) {
	s.events = append(s.events, SessionEvent{
		Seq:    len(s.events) + 1,
		Time:   s.p.Eng.Now(),
		AppID:  appID,
		Kind:   kind,
		Detail: detail,
	})
}

// Status snapshots one submission.
func (s *Session) Status(appID string) (AppStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.negs[appID]
	if !ok {
		return AppStatus{}, fmt.Errorf("core: unknown app %q", appID)
	}
	return g.statusLocked(), nil
}

// Statuses snapshots every submission in submission order.
func (s *Session) Statuses() []AppStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AppStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.negs[id].statusLocked())
	}
	return out
}

// VCs snapshots every virtual cluster in configuration order.
func (s *Session) VCs() []VCStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VCStatus, 0, len(s.p.cmOrder))
	for _, name := range s.p.cmOrder {
		cm := s.p.cms[name]
		out = append(out, VCStatus{
			Name:         cm.name,
			Type:         string(cm.cfg.Type),
			InitialVMs:   cm.cfg.InitialVMs,
			Avail:        cm.avail,
			OwnedPrivate: cm.OwnedPrivate,
			Nodes:        len(cm.attached),
			Apps:         cm.accepted,
		})
	}
	return out
}

// Metrics snapshots platform-wide gauges and counters.
func (s *Session) Metrics() PlatformMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := PlatformMetrics{
		Now:         s.p.Eng.Now(),
		PrivateUsed: s.p.PrivateUsed.Value(),
		CloudUsed:   s.p.CloudUsed.Value(),
		EventsFired: s.p.Eng.Fired(),
		Submitted:   len(s.order),
		Settled:     len(s.order) - s.p.remaining,
		Counters:    s.p.Counters,
	}
	if s.p.Audit != nil {
		m.AuditChecks = s.p.Audit.Checks
	}
	for _, id := range s.order {
		if g := s.negs[id]; g.m != nil {
			m.NegRounds += g.m.Round()
		}
	}
	for _, prov := range s.p.Clouds {
		m.CloudSpend += prov.TotalSpend
		m.SpotSpend += prov.SpotSpend
	}
	return m
}

// serverlessForLocked resolves an accepted submission to the serverless
// framework hosting it. Callers hold s.mu.
func (s *Session) serverlessForLocked(appID string) (*serverless.Serverless, error) {
	g, ok := s.negs[appID]
	if !ok {
		return nil, fmt.Errorf("core: unknown app %q", appID)
	}
	if g.state != NegotiationAccepted || g.cm == nil {
		return nil, fmt.Errorf("core: app %s has no agreed contract", appID)
	}
	fw := g.cm.serverlessFW()
	if fw == nil {
		return nil, fmt.Errorf("core: app %s is not a serverless application", appID)
	}
	return fw, nil
}

// DeployRevision registers a new immutable revision for a serverless
// application, at traffic weight zero — the first canary step. A
// SetTrafficSplit call moves traffic onto it.
func (s *Session) DeployRevision(appID, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("core: session is drained")
	}
	fw, err := s.serverlessForLocked(appID)
	if err != nil {
		return err
	}
	if err := fw.DeployRevision(appID, name); err != nil {
		return err
	}
	s.p.Counters.RevisionDeploys.Inc()
	s.emitLocked(appID, "revision", name)
	return nil
}

// SetTrafficSplit reassigns traffic weights across a serverless
// application's revisions (canary 90/10, promote, roll back). Weights
// are relative; revisions not named drop to zero.
func (s *Session) SetTrafficSplit(appID string, weights map[string]int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("core: session is drained")
	}
	fw, err := s.serverlessForLocked(appID)
	if err != nil {
		return err
	}
	if err := fw.SetTrafficSplit(appID, weights); err != nil {
		return err
	}
	s.p.Counters.TrafficSplits.Inc()
	// Deterministic event detail: weights render in name order.
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	detail := ""
	for i, name := range names {
		if i > 0 {
			detail += " "
		}
		detail += fmt.Sprintf("%s=%d", name, weights[name])
	}
	s.emitLocked(appID, "traffic", detail)
	return nil
}

// Revisions snapshots a serverless application's revisions in deploy
// order: traffic weight, pinned instances, routed requests, cold starts.
func (s *Session) Revisions(appID string) ([]serverless.RevisionStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fw, err := s.serverlessForLocked(appID)
	if err != nil {
		return nil, err
	}
	return fw.Revisions(appID)
}

// Drain runs the platform dry — every submission settles, then the
// settle-grace window lets in-flight transfers, loan returns and lease
// terminations complete — and closes the session, returning the run
// summary. Interactive negotiations still open when the event queue
// empties are rejected (the submission window is over).
func (s *Session) Drain() (*Results, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("core: session is drained")
	}
	for {
		s.runToSettleLocked()
		if s.p.remaining == 0 {
			break
		}
		// Events exhausted with unsettled submissions: only open
		// negotiations can hold the session up — walk away from them
		// and settle what their rejection unblocks.
		open := false
		for _, id := range s.order {
			if g := s.negs[id]; g.state == NegotiationPending || g.state == NegotiationOffered {
				g.rejectLocked(fmt.Errorf("core: session drained before a response"))
				open = true
			}
		}
		if !open {
			break
		}
	}
	// Drain follow-up work (transfers, releases, resumes) bounded by the
	// grace window; without crash injection the queue simply empties.
	s.p.Eng.Run(s.p.Eng.Now() + settleGrace)
	// One final audit barrier over the drained platform, so every run
	// ends with the whole invariant catalogue verified.
	s.p.Audit.run()
	s.closeLocked()
	return s.p.buildResults(), nil
}

// close abandons the session without draining, freeing the platform's
// session slot (Run's error path).
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked()
}

func (s *Session) closeLocked() {
	s.closed = true
	s.p.sessMu.Lock()
	s.p.session = nil
	s.p.sessMu.Unlock()
}

// AppID returns the application the negotiation is for.
func (g *Negotiation) AppID() string { return g.appID }

// State returns the handle's current state.
func (g *Negotiation) State() NegotiationState {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.state
}

// Round returns the number of completed negotiation rounds.
func (g *Negotiation) Round() int {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.m == nil {
		return 0
	}
	return g.m.Round()
}

// Offers returns a copy of the proposal set on the table (nil unless
// the negotiation is in NegotiationOffered).
func (g *Negotiation) Offers() []sla.Offer {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.offersLocked()
}

func (g *Negotiation) offersLocked() []sla.Offer {
	if g.state != NegotiationOffered || g.m == nil {
		return nil
	}
	src := g.m.Offers()
	out := make([]sla.Offer, len(src))
	copy(out, src)
	return out
}

// Contract returns the agreed contract (nil unless accepted).
func (g *Negotiation) Contract() *sla.Contract {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.contract
}

// Err returns why the negotiation was rejected (nil otherwise).
func (g *Negotiation) Err() error {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.err
}

// Await drives the engine until the negotiation leaves
// NegotiationPending — the interactive caller's "wait for the offers".
func (g *Negotiation) Await() error {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	for g.state == NegotiationPending && !g.s.closed && g.s.p.Eng.Step() {
	}
	if g.state == NegotiationPending {
		return fmt.Errorf("core: %s: no queued event can progress the negotiation", g.appID)
	}
	return nil
}

// Accept agrees to the i-th offer of the current proposal set. The
// contract is final immediately; placement proceeds as the caller
// advances virtual time.
func (g *Negotiation) Accept(i int) (*sla.Contract, error) {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.state != NegotiationOffered {
		return nil, fmt.Errorf("core: accepting offer for %s: negotiation is %s", g.appID, g.state)
	}
	c, err := g.m.Accept(i)
	if err != nil {
		return nil, err
	}
	g.cm.acceptContract(g.st, c)
	return c, nil
}

// Counter opens the next round with a user-imposed constraint (exactly
// one of deadline or price must be set) and returns the provider's new
// proposal set. Exhausting the round budget rejects the negotiation
// with sla.ErrNoAgreement.
func (g *Negotiation) Counter(deadline sim.Time, price float64) ([]sla.Offer, error) {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if deadline > 0 && price > 0 {
		return nil, fmt.Errorf("core: countering %s: impose exactly one of deadline or price", g.appID)
	}
	if g.state != NegotiationOffered {
		return nil, fmt.Errorf("core: countering %s: negotiation is %s", g.appID, g.state)
	}
	if err := g.m.Impose(sla.Response{ImposeDeadline: deadline, ImposePrice: price}); err != nil {
		return nil, err
	}
	if g.m.State() == sla.NegFailed {
		g.rejectLocked(sla.ErrNoAgreement)
		return nil, sla.ErrNoAgreement
	}
	g.s.emitLocked(g.appID, "offers", fmt.Sprintf("round %d", g.m.Round()))
	return g.offersLocked(), nil
}

// Reject walks away from the negotiation; the submission settles as
// rejected.
func (g *Negotiation) Reject() error {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.state != NegotiationOffered {
		return fmt.Errorf("core: rejecting %s: negotiation is %s", g.appID, g.state)
	}
	if g.m != nil {
		_ = g.m.Reject()
	}
	g.rejectLocked(fmt.Errorf("core: rejected by user"))
	return nil
}

// rejectLocked settles a live negotiation as rejected from the session
// side (user walk-away, failed counter, or drain). The Cluster-Manager
// rejection paths instead call noteRejected — they already count and
// settle the app themselves.
func (g *Negotiation) rejectLocked(err error) {
	if g.state == NegotiationAccepted || g.state == NegotiationRejected {
		return
	}
	// Without a state the submission never reached its Cluster
	// Manager, so it has no record to freeze.
	var rec *metrics.AppRecord
	if g.st != nil {
		rec = g.st.rec
	}
	g.s.p.Counters.Rejections.Inc()
	g.s.p.appSettled(g.appID, rec, 0)
	g.noteRejected(err)
}

// offersReady parks an interactive negotiation at the offer stage
// (called by the Cluster Manager inside the submission event).
func (g *Negotiation) offersReady(cm *ClusterManager, st *appState, m *sla.Negotiation) {
	g.cm, g.st, g.m = cm, st, m
	g.state = NegotiationOffered
	g.s.emitLocked(g.appID, "offers", fmt.Sprintf("%d offers", len(m.Offers())))
}

// noteAgreed records the agreed contract (called from acceptContract,
// on both the interactive and the strategy-driven path).
func (g *Negotiation) noteAgreed(cm *ClusterManager, st *appState, c *sla.Contract) {
	g.cm, g.st, g.contract = cm, st, c
	g.state = NegotiationAccepted
	g.s.emitLocked(g.appID, "agreed", agreedDetail(c.NumVMs, c.Price))
}

// agreedDetail is the detail of an "agreed" event: the bytes of fmt's
// "%d VMs for %.0f units", built without fmt.
func agreedDetail(vms int, price float64) string {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(vms), 10)
	b = append(b, " VMs for "...)
	b = strconv.AppendFloat(b, price, 'f', 0, 64)
	return string(append(b, " units"...))
}

// noteRejected records a rejection (validation failure, routing
// failure, no agreement, user walk-away).
func (g *Negotiation) noteRejected(err error) {
	g.state = NegotiationRejected
	g.err = err
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	g.s.emitLocked(g.appID, "rejected", detail)
}

// statusLocked builds the submission snapshot.
func (g *Negotiation) statusLocked() AppStatus {
	st := AppStatus{ID: g.appID, Round: 0}
	if g.m != nil {
		st.Round = g.m.Round()
	}
	if g.err != nil {
		st.Rejection = g.err.Error()
	}
	st.Contract = g.contract
	switch g.state {
	case NegotiationPending:
		st.Phase = PhasePending
	case NegotiationOffered:
		st.Phase = PhaseNegotiating
		st.Offers = g.offersLocked()
	case NegotiationRejected:
		st.Phase = PhaseRejected
	case NegotiationAccepted:
		st.Phase = PhasePlacing
		if g.st != nil && g.st.job != nil {
			st.Phase = jobPhase(g.st.job.State)
			st.Replicas = g.st.job.Replicas
			st.Suspensions = g.st.job.Suspensions
		}
	}
	var rec *metrics.AppRecord
	if g.st != nil {
		rec = g.st.rec
	} else {
		rec = g.s.p.Ledger.Get(g.appID)
	}
	if rec != nil {
		st.VC = rec.VC
		st.Type = rec.Type
		st.SubmitTime = rec.SubmitTime
		st.StartTime = rec.StartTime
		st.EndTime = rec.EndTime
		st.Deadline = rec.Deadline
		st.Price = rec.Price
		st.Penalty = rec.Penalty
		st.Cost = rec.Cost
		st.NumVMs = rec.NumVMs
		st.Placement = rec.Placement
	}
	return st
}
