// Package server puts an HTTP/JSON control plane on a core.Session —
// the open-platform interface of the paper made concrete: applications
// arrive at runtime over POST /v1/apps, negotiate their SLA over
// /accept, /counter and /reject, and observers follow the platform
// through /v1/vcs, /v1/metrics and the NDJSON event stream at
// /v1/events. Handlers translate between wire DTOs (internal/api) and
// the session API.
//
// Crash safety and graceful degradation live at this layer:
//
//   - when Config.Store is set, every state-changing request is
//     journaled (write-ahead, fsync'd) before it is applied, and the
//     store is checkpointed every SnapshotEvery records;
//   - MaxInFlight bounds concurrent state-changing requests; excess
//     load is shed with 429 + Retry-After instead of queueing without
//     bound;
//   - the server moves through recovering → serving → draining, and
//     /healthz tells the states apart so orchestrators and clients can
//     hold their traffic during replay.
//
// Retried requests are safe: resubmitting a journaled application ID
// returns its current status, and re-accepting an already-accepted
// negotiation returns the agreed contract — at-least-once delivery from
// a retrying client converges instead of erroring.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"meryn/internal/api"
	"meryn/internal/core"
	"meryn/internal/durable"
	"meryn/internal/sim"
	"meryn/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// OnMutate, when non-nil, runs after every state-changing request
	// (submit, accept, counter, reject). The merynd virtual-time mode
	// injects its fast-forward here; wall-clock mode leaves it nil and
	// lets the ticker drive the session.
	OnMutate func()

	// PollInterval is the event-stream poll period (default 100 ms of
	// wall time).
	PollInterval time.Duration

	// Store, when non-nil, is the durable write-ahead journal: every
	// state-changing request is appended (and fsync'd) before it is
	// applied, so a crash between apply and reply is recoverable by
	// replay.
	Store *durable.Store

	// SnapshotEvery checkpoints the store after this many journal
	// records (default 64; negative disables periodic checkpoints).
	SnapshotEvery int

	// MaxInFlight bounds concurrent state-changing requests; the
	// excess is shed with 429 + Retry-After. Zero means unbounded.
	MaxInFlight int

	// RetryAfter is the hint sent with 429/503 responses (default 1s).
	RetryAfter time.Duration

	// Logf receives operational warnings (checkpoint failures). Nil
	// discards them.
	Logf func(format string, args ...any)

	// Logger, when non-nil, emits one structured access-log line per
	// request (request ID, method, route, status, latency, bytes).
	Logger *slog.Logger

	// Registry, when non-nil, instruments the whole request path
	// (latency histograms per route, inflight gauge, shed counter,
	// journal/snapshot I/O latency, session gauges) and serves the
	// Prometheus exposition at GET /metrics.
	Registry *telemetry.Registry
}

// State is the server's position on the degradation ladder.
type State int32

// Server states.
const (
	// StateServing: normal operation.
	StateServing State = iota
	// StateRecovering: journal replay in progress; every /v1 route
	// answers 503 until it finishes.
	StateRecovering
	// StateDraining: shutdown under way; in-flight requests finish,
	// new state-changing requests are refused.
	StateDraining
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateRecovering:
		return "recovering"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Server exposes one open session over HTTP.
type Server struct {
	sess   *core.Session
	cfg    Config
	nextID atomic.Int64
	state  atomic.Int32

	// wmu serializes journal-then-apply for state-changing requests,
	// so the journal order is exactly the apply order — the property
	// replay depends on.
	wmu      sync.Mutex
	inflight chan struct{} // nil when MaxInFlight is 0

	tel     *httpMetrics // nil when Config.Registry is nil
	started time.Time    // process-local; /healthz reports uptime from here
}

// New builds a server around an open session.
func New(sess *core.Session, cfg Config) *Server {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 100 * time.Millisecond
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{sess: sess, cfg: cfg, started: time.Now()}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.Registry != nil {
		s.tel = newHTTPMetrics(cfg.Registry)
		registerDurableMetrics(cfg.Registry, cfg.Store)
		s.registerSessionGauges(cfg.Registry)
	}
	return s
}

// SetState moves the server along the degradation ladder.
func (s *Server) SetState(st State) { s.state.Store(int32(st)) }

// State returns the server's current state.
func (s *Server) State() State { return State(s.state.Load()) }

// SeedIDs raises the server-assigned ID counter to at least n. The
// submit path also skips IDs that already exist, so this is an
// optimization (recovery restores the counter from the snapshot rather
// than probing past every replayed submission).
func (s *Server) SeedIDs(n int64) {
	for {
		cur := s.nextID.Load()
		if cur >= n || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Handler returns the route table. While the server is recovering,
// every route but /healthz and /metrics answers 503 + Retry-After.
// Every route is instrumented (when telemetry is configured) with its
// pattern as the route label, so path parameters don't explode the
// label space.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"GET /healthz":                 s.health,
		"POST /v1/apps":                s.shed(s.submit),
		"GET /v1/apps":                 s.listApps,
		"GET /v1/apps/{id}":            s.status,
		"POST /v1/apps/{id}/accept":    s.shed(s.accept),
		"POST /v1/apps/{id}/counter":   s.shed(s.counter),
		"POST /v1/apps/{id}/reject":    s.shed(s.reject),
		"POST /v1/apps/{id}/revisions": s.shed(s.deployRevision),
		"GET /v1/apps/{id}/revisions":  s.revisions,
		"POST /v1/apps/{id}/traffic":   s.shed(s.setTraffic),
		"GET /v1/vcs":                  s.vcs,
		"GET /v1/metrics":              s.metrics,
		"GET /v1/events":               s.events,
	}
	if s.cfg.Registry != nil {
		routes["GET /metrics"] = s.cfg.Registry.Handler().ServeHTTP
	}
	for pattern, h := range routes {
		route := pattern[strings.IndexByte(pattern, ' ')+1:]
		mux.HandleFunc(pattern, s.obs(route, h))
		if s.tel != nil {
			// Instantiate the per-route series up front: the scrape
			// shape is complete from the first request, not grown
			// lazily as routes get traffic.
			s.tel.duration.With(route)
			s.tel.bytes.With(route)
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.State() == StateRecovering && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			s.retryAfterHeader(w)
			writeErr(w, http.StatusServiceUnavailable, "control plane is recovering")
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// shed wraps a state-changing handler with the degradation ladder: a
// draining server refuses new mutations, and when MaxInFlight requests
// are already in flight the surplus is bounced with 429 + Retry-After
// rather than queued until the listener collapses.
func (s *Server) shed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if st := s.State(); st != StateServing {
			s.retryAfterHeader(w)
			writeErr(w, http.StatusServiceUnavailable, "control plane is %s", st)
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				if s.tel != nil {
					s.tel.shed.Inc()
				}
				s.retryAfterHeader(w)
				writeErr(w, http.StatusTooManyRequests,
					"control plane at capacity (%d state-changing requests in flight)", s.cfg.MaxInFlight)
				return
			}
		}
		h(w, r)
	}
}

func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// journal makes one record durable ahead of its apply; callers hold
// s.wmu. A full checkpoint follows every SnapshotEvery records.
func (s *Server) journal(rec durable.Record) error {
	if s.cfg.Store == nil {
		return nil
	}
	if _, err := s.cfg.Store.Append(rec); err != nil {
		return err
	}
	if s.cfg.SnapshotEvery > 0 && s.cfg.Store.TailLen() >= s.cfg.SnapshotEvery {
		if err := s.Checkpoint(); err != nil && s.cfg.Logf != nil {
			// The records are journaled; a failed compaction costs
			// replay time, not correctness.
			s.cfg.Logf("server: checkpoint failed: %v", err)
		}
	}
	return nil
}

// Checkpoint compacts the store's journal into a snapshot stamped with
// the session's current clock, ID counter and state digest.
func (s *Server) Checkpoint() error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Checkpoint(
		sim.ToSeconds(s.sess.Now()),
		s.nextID.Load(),
		fmt.Sprintf("%016x", s.sess.Digest()),
	)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) mutated() {
	if s.cfg.OnMutate != nil {
		s.cfg.OnMutate()
	}
}

// healthBody is the /healthz JSON answer: the degradation-ladder state
// by name plus process uptime, so orchestrators (status code) and
// humans (body) read the same story.
type healthBody struct {
	Status  string  `json:"status"`
	UptimeS float64 `json:"uptime_s"`
}

// health distinguishes the degradation states: 200 while serving, 503
// (with the state named) while recovering or draining.
func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	code := http.StatusOK
	if st != StateServing {
		s.retryAfterHeader(w)
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthBody{Status: st.String(), UptimeS: time.Since(s.started).Seconds()})
}

// submit receives one application, journals it, schedules it, waits
// for the proposal set and returns the submission snapshot (offers
// included). Resubmitting an ID the platform already knows returns the
// submission's current status — the idempotency that makes client
// retries after a lost reply safe.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var dto api.App
	if err := json.NewDecoder(r.Body).Decode(&dto); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if dto.ID == "" {
		// Skip IDs that already exist: after recovery the counter
		// restarts, but replayed submissions already hold their IDs.
		for {
			id := fmt.Sprintf("app-%04d", s.nextID.Add(1))
			if _, err := s.sess.Status(id); err != nil {
				dto.ID = id
				break
			}
		}
	} else if st, err := s.sess.Status(dto.ID); err == nil {
		writeJSON(w, http.StatusOK, api.StatusFrom(st))
		return
	}
	app, err := dto.ToWorkload()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	at := s.sess.Now()
	if err := s.journal(durable.Record{TimeS: sim.ToSeconds(at), Kind: durable.KindSubmit, App: &dto}); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	// Snapshot the clock before scheduling: a future submit_at_s stays
	// scheduled rather than awaited, so one client cannot fast-forward
	// the shared virtual clock through everyone else's events (wall
	// mode delivers the offers when the arrival time comes around).
	dueNow := app.SubmitAt <= at
	neg, err := s.sess.Submit(app)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if dueNow {
		// Drive the engine to the offer stage so the response carries
		// the proposal set (§4.2.1's first round answers the request).
		if err := neg.Await(); err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	s.mutated()
	st, err := s.sess.Status(app.ID)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, api.StatusFrom(st))
}

func (s *Server) listApps(w http.ResponseWriter, _ *http.Request) {
	sts := s.sess.Statuses()
	out := make([]api.AppStatus, len(sts))
	for i, st := range sts {
		out[i] = api.StatusFrom(st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	st, err := s.sess.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.StatusFrom(st))
}

// acceptRequest selects an offer; the zero value accepts the first.
type acceptRequest struct {
	OfferIndex int `json:"offer_index"`
}

func (s *Server) accept(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req acceptRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
			return
		}
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	neg, ok := s.sess.Negotiation(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown app %q", id)
		return
	}
	if err := s.journal(durable.Record{
		TimeS: sim.ToSeconds(s.sess.Now()), Kind: durable.KindAccept,
		AppID: id, OfferIndex: req.OfferIndex,
	}); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	c, err := neg.Accept(req.OfferIndex)
	if err != nil {
		// A retried accept whose first try landed (the reply was lost)
		// finds the contract already agreed: return it.
		if neg.State() == core.NegotiationAccepted && neg.Contract() != nil {
			writeJSON(w, http.StatusOK, api.ContractFromSLA(neg.Contract()))
			return
		}
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	s.mutated()
	writeJSON(w, http.StatusOK, api.ContractFromSLA(c))
}

// counterRequest imposes one metric for the next negotiation round.
type counterRequest struct {
	DeadlineS float64 `json:"deadline_s,omitempty"`
	Price     float64 `json:"price,omitempty"`
}

func (s *Server) counter(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req counterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.DeadlineS > 0 && req.Price > 0 {
		writeErr(w, http.StatusBadRequest, "impose exactly one of deadline_s or price")
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	neg, ok := s.sess.Negotiation(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown app %q", id)
		return
	}
	if err := s.journal(durable.Record{
		TimeS: sim.ToSeconds(s.sess.Now()), Kind: durable.KindCounter,
		AppID: id, DeadlineS: req.DeadlineS, Price: req.Price,
	}); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	offers, err := neg.Counter(sim.Seconds(req.DeadlineS), req.Price)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	s.mutated()
	writeJSON(w, http.StatusOK, api.OffersFromSLA(offers))
}

func (s *Server) reject(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.wmu.Lock()
	defer s.wmu.Unlock()
	neg, ok := s.sess.Negotiation(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown app %q", id)
		return
	}
	if err := s.journal(durable.Record{
		TimeS: sim.ToSeconds(s.sess.Now()), Kind: durable.KindReject, AppID: id,
	}); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	if err := neg.Reject(); err != nil {
		// A retried reject that already landed converges, like accept.
		if neg.State() != core.NegotiationRejected {
			writeErr(w, http.StatusConflict, "%v", err)
			return
		}
	}
	s.mutated()
	st, _ := s.sess.Status(id)
	writeJSON(w, http.StatusOK, api.StatusFrom(st))
}

// deployRevision registers a new immutable revision (at traffic weight
// zero) for a serverless application, journaled ahead of the apply like
// every mutation. A retried deploy whose first try landed finds the
// revision already present and converges on the current revision set.
func (s *Server) deployRevision(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req api.DeployRevisionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "revision name is required")
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if revs, err := s.sess.Revisions(id); err == nil {
		for _, rv := range revs {
			if rv.Name == req.Name {
				writeJSON(w, http.StatusOK, api.RevisionsFrom(revs))
				return
			}
		}
	}
	if err := s.journal(durable.Record{
		TimeS: sim.ToSeconds(s.sess.Now()), Kind: durable.KindDeployRevision,
		AppID: id, Revision: req.Name,
	}); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	if err := s.sess.DeployRevision(id, req.Name); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	s.mutated()
	revs, _ := s.sess.Revisions(id)
	writeJSON(w, http.StatusCreated, api.RevisionsFrom(revs))
}

// setTraffic reassigns traffic weights across a serverless
// application's revisions (canary, promote, roll back). Re-applying the
// same weights is naturally idempotent, so retries converge.
func (s *Server) setTraffic(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req api.TrafficSplitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.Weights) == 0 {
		writeErr(w, http.StatusBadRequest, "weights are required")
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.journal(durable.Record{
		TimeS: sim.ToSeconds(s.sess.Now()), Kind: durable.KindSetTraffic,
		AppID: id, Weights: req.Weights,
	}); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	if err := s.sess.SetTrafficSplit(id, req.Weights); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	s.mutated()
	revs, _ := s.sess.Revisions(id)
	writeJSON(w, http.StatusOK, api.RevisionsFrom(revs))
}

// revisions returns a serverless application's revision set: traffic
// weights, pinned instances, routed requests and cold starts.
func (s *Server) revisions(w http.ResponseWriter, r *http.Request) {
	revs, err := s.sess.Revisions(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.RevisionsFrom(revs))
}

func (s *Server) vcs(w http.ResponseWriter, _ *http.Request) {
	vcs := s.sess.VCs()
	out := make([]api.VC, len(vcs))
	for i, v := range vcs {
		out[i] = api.VCFrom(v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.MetricsFrom(s.sess.Metrics()))
}

// events streams the session event log as NDJSON. ?since=N resumes
// after sequence N; ?follow=1 keeps the stream open, polling for new
// events, until the client disconnects.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	var since int
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "invalid since %q: want a non-negative integer", q)
			return
		}
		since = n
	}
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func() {
		for _, e := range s.sess.EventsSince(since) {
			_ = enc.Encode(api.EventFrom(e))
			since = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit()
	if !follow {
		return
	}
	ticker := time.NewTicker(s.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			emit()
		}
	}
}
