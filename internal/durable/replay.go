package durable

import (
	"fmt"

	"meryn/internal/core"
	"meryn/internal/sim"
)

// ReplayStats summarizes a recovery pass.
type ReplayStats struct {
	Applied int      // records whose action took effect again
	Failed  int      // records whose action errored (it errored live too)
	Errors  []string // one "seq N (kind): err" line per failed record
}

// Replay rebuilds session state by re-applying journaled actions in
// order. Before each record it steps the virtual clock to the record's
// time, so every submission, offer computation and contract lands at
// exactly the instant it did live — the determinism the sweep harness
// proves is what makes the rebuilt state byte-identical.
//
// onMutate mirrors the server's post-mutation hook (merynd's
// virtual-time mode fast-forwards there); it runs after every record
// that applied cleanly, exactly as the live handler did. Records whose
// action errors are counted and skipped, not fatal: the journal is
// written ahead of the apply, so a request that failed validation live
// fails identically here and leaves the same state behind.
func Replay(sess *core.Session, recs []Record, onMutate func()) ReplayStats {
	var stats ReplayStats
	for _, r := range recs {
		sess.Step(sim.Seconds(r.TimeS))
		if err := apply(sess, r); err != nil {
			stats.Failed++
			stats.Errors = append(stats.Errors, fmt.Sprintf("seq %d (%s): %v", r.Seq, r.Kind, err))
			continue
		}
		if onMutate != nil {
			onMutate()
		}
		stats.Applied++
	}
	return stats
}

// Recover replays a state directory's history and checks its seal on
// the way. recs is the history Store.Records returns (seq 1, 2, …) and
// seal the store's last seal, or nil. Once records 1..seal.LastSeq are
// replayed, Recover steps the clock to the seal's time — only when that
// is later, because the engine fires events due exactly at its horizon,
// which the live run may not have fired when it took the digest — and
// compares the session's digest with the sealed one. A mismatch means
// replay does not rebuild the state the live run sealed, and Recover
// returns an error naming the seal's seq and both digests instead of
// replaying further. Otherwise it replays the remaining records. A
// seal past the records given, or at a time sim.Time cannot hold, is
// refused before anything replays.
func Recover(sess *core.Session, recs []Record, seal *Snapshot, onMutate func()) (ReplayStats, error) {
	if seal == nil {
		return Replay(sess, recs, onMutate), nil
	}
	n := int(seal.LastSeq)
	if n < 0 || n > len(recs) {
		return ReplayStats{}, fmt.Errorf("durable: the seal covers records through seq %d, but %d were given", n, len(recs))
	}
	if err := checkTime("seal", seal.TimeS); err != nil {
		return ReplayStats{}, err
	}
	stats := Replay(sess, recs[:n], onMutate)
	if at := sim.Seconds(seal.TimeS); at > sess.Now() {
		sess.Step(at)
	}
	if got := fmt.Sprintf("%016x", sess.Digest()); got != seal.Digest {
		return stats, fmt.Errorf("durable: replay diverges at the seal after seq %d: replayed state digest %s, sealed %s",
			seal.LastSeq, got, seal.Digest)
	}
	rest := Replay(sess, recs[n:], onMutate)
	stats.Applied += rest.Applied
	stats.Failed += rest.Failed
	stats.Errors = append(stats.Errors, rest.Errors...)
	return stats, nil
}

// apply re-issues one record through the session API with the same
// semantics as the live HTTP handler.
func apply(sess *core.Session, r Record) error {
	switch r.Kind {
	case KindSubmit:
		app, err := r.App.ToWorkload()
		if err != nil {
			return err
		}
		dueNow := app.SubmitAt <= sess.Now()
		neg, err := sess.Submit(app)
		if err != nil {
			return err
		}
		if dueNow {
			return neg.Await()
		}
		return nil
	case KindAccept:
		neg, err := negotiation(sess, r.AppID)
		if err != nil {
			return err
		}
		_, err = neg.Accept(r.OfferIndex)
		return err
	case KindCounter:
		neg, err := negotiation(sess, r.AppID)
		if err != nil {
			return err
		}
		_, err = neg.Counter(sim.Seconds(r.DeadlineS), r.Price)
		return err
	case KindReject:
		neg, err := negotiation(sess, r.AppID)
		if err != nil {
			return err
		}
		return neg.Reject()
	case KindDeployRevision:
		return sess.DeployRevision(r.AppID, r.Revision)
	case KindSetTraffic:
		return sess.SetTrafficSplit(r.AppID, r.Weights)
	default:
		return fmt.Errorf("durable: unknown record kind %q", r.Kind)
	}
}

func negotiation(sess *core.Session, appID string) (*core.Negotiation, error) {
	neg, ok := sess.Negotiation(appID)
	if !ok {
		return nil, fmt.Errorf("durable: no negotiation for app %q", appID)
	}
	return neg, nil
}
