// Package durable makes the control plane crash-safe. The insight it
// leans on is that the platform is a deterministic discrete-event
// simulation: given the same configuration (seed, policy) and the same
// sequence of state-changing API actions applied at the same virtual
// times, core.Session rebuilds byte-identical platform state. Recovery
// therefore never serializes the engine — it records *inputs*:
//
//   - a write-ahead Journal appends one typed Record per state-changing
//     API action (submit, accept, counter, reject, deploy-revision,
//     set-traffic), fsync'd before the handler replies. It is the only
//     record history: it is appended to and never rewritten;
//   - Apply turns one Record into session calls. It is the only code
//     that does: the HTTP server applies each request it journals with
//     it, and Replay re-applies the journal with it;
//   - a Snapshot seals the state after the last journaled apply: the
//     config fingerprint, the seq it covers, the virtual clock, the
//     next server ID and a state digest, in one atomically replaced
//     file;
//   - Replay drives the records back through Apply after a restart,
//     stepping the virtual clock to each record's time before applying
//     it, and Recover checks the seal on the way: a replay that does
//     not reproduce the sealed digest is refused.
//
// A torn final journal record (the classic crash-mid-write artifact)
// is detected by CRC framing and dropped; anything torn earlier than
// the tail is corruption and refuses to load. A failed write or fsync
// ends the journal: every later append fails and leaves the file
// alone, so the failed frame stays the last line, where the next Open
// drops it when torn and replays it when whole.
package durable

import (
	"fmt"
	"math"

	"meryn/internal/api"
)

// Kind tags a journal record with the API action it captures.
type Kind string

// Journaled control-plane actions. These mirror the mutating routes of
// the HTTP API one-to-one; read-only routes are never journaled.
const (
	KindSubmit  Kind = "submit"
	KindAccept  Kind = "accept"
	KindCounter Kind = "counter"
	KindReject  Kind = "reject"
	// Serverless rollout actions: deploy an immutable revision, move
	// traffic between revisions. Journaled like every other mutation, so
	// an in-flight canary survives a control-plane crash.
	KindDeployRevision Kind = "deploy-revision"
	KindSetTraffic     Kind = "set-traffic"
)

// Record is one state-changing control-plane action. TimeS is the
// virtual clock at the moment the action was applied; Replay steps the
// engine there before re-applying, which is what makes the rebuilt
// state identical rather than merely similar.
type Record struct {
	Seq   int64   `json:"seq"`
	TimeS float64 `json:"time_s"`
	Kind  Kind    `json:"kind"`

	// Submit payload: the wire-form application, including the ID the
	// server assigned (so replay re-creates the same ID space).
	App *api.App `json:"app,omitempty"`

	// Accept/counter/reject target.
	AppID string `json:"app_id,omitempty"`

	// Accept payload.
	OfferIndex int `json:"offer_index,omitempty"`

	// Counter payload (exactly one of the two is non-zero).
	DeadlineS float64 `json:"deadline_s,omitempty"`
	Price     float64 `json:"price,omitempty"`

	// Deploy-revision payload.
	Revision string `json:"revision,omitempty"`

	// Set-traffic payload.
	Weights map[string]int `json:"weights,omitempty"`
}

// Validate rejects records that could never replay.
func (r Record) Validate() error {
	switch r.Kind {
	case KindSubmit:
		if r.App == nil || r.App.ID == "" {
			return fmt.Errorf("durable: submit record without an app ID")
		}
	case KindAccept, KindCounter, KindReject:
		if r.AppID == "" {
			return fmt.Errorf("durable: %s record without an app ID", r.Kind)
		}
	case KindDeployRevision:
		if r.AppID == "" {
			return fmt.Errorf("durable: %s record without an app ID", r.Kind)
		}
		if r.Revision == "" {
			return fmt.Errorf("durable: deploy-revision record without a revision name")
		}
	case KindSetTraffic:
		if r.AppID == "" {
			return fmt.Errorf("durable: %s record without an app ID", r.Kind)
		}
		if len(r.Weights) == 0 {
			return fmt.Errorf("durable: set-traffic record without weights")
		}
	default:
		return fmt.Errorf("durable: unknown record kind %q", r.Kind)
	}
	return checkTime("record", r.TimeS)
}

// maxTimeS is the largest whole second sim.Time holds. sim.Seconds
// rounds to int64 nanoseconds, which overflow past it.
const maxTimeS = math.MaxInt64 / 1_000_000_000

// checkTime refuses a virtual time, in seconds, that sim.Time cannot
// hold: negative, NaN, or past maxTimeS.
func checkTime(what string, s float64) error {
	if s >= 0 && s <= maxTimeS {
		return nil
	}
	return fmt.Errorf("durable: %s time %g s is outside [0, %d]", what, s, maxTimeS)
}
