package core

import (
	"strconv"

	"meryn/internal/sim"
)

// eventKind is the kind of one session event; eventKindNames gives the
// string SessionEvent.Kind carries for each.
type eventKind uint8

const (
	evSubmitted eventKind = iota
	evOffers
	evAgreed
	evRejected
	evStarted
	evSuspended
	evCompleted
	evRevision
	evTraffic
)

var eventKindNames = [...]string{
	evSubmitted: "submitted",
	evOffers:    "offers",
	evAgreed:    "agreed",
	evRejected:  "rejected",
	evStarted:   "started",
	evSuspended: "suspended",
	evCompleted: "completed",
	evRevision:  "revision",
	evTraffic:   "traffic",
}

// eventRec is one session event as the log stores it. The application
// is its negotiation handle, and the sequence number is the record's
// position in the log. An "agreed" event keeps the contract's VM count
// and price, which agreedDetail renders only when the event is read;
// every other kind keeps its detail string.
type eventRec struct {
	at     sim.Time
	neg    *Negotiation
	detail string
	price  float64
	vms    int32
	kind   eventKind
}

// event renders the record as the session API reports it.
func (e *eventRec) event(seq int) SessionEvent {
	detail := e.detail
	if e.kind == evAgreed {
		detail = agreedDetail(int(e.vms), e.price)
	}
	return SessionEvent{Seq: seq, Time: e.at, AppID: e.neg.app.ID, Kind: eventKindNames[e.kind], Detail: detail}
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

// eventChunkLen is how many records one chunk of the event log holds:
// a chunk is 6 KiB, so a session of a few applications (one run of
// the frameworks-mix grids) allocates little more than its events,
// and a batch application's four events cost 0.03 chunk allocations.
const eventChunkLen = 128

// eventLog is the session's append-only event log in fixed-size
// chunks. An append fills the next slot of the last chunk and, once
// every eventChunkLen events, allocates a new chunk: it never copies
// the records already logged.
type eventLog struct {
	chunks []*[eventChunkLen]eventRec
	n      int
}

// add appends one record.
func (l *eventLog) add(e eventRec) {
	i := l.n % eventChunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([eventChunkLen]eventRec))
	}
	l.chunks[len(l.chunks)-1][i] = e
	l.n++
}

// since renders the events with Seq > seq, oldest first; a negative
// cursor means from the beginning.
func (l *eventLog) since(seq int) []SessionEvent {
	if seq < 0 {
		seq = 0
	}
	if seq >= l.n {
		return nil
	}
	out := make([]SessionEvent, 0, l.n-seq)
	for i := seq; i < l.n; i++ {
		out = append(out, l.chunks[i/eventChunkLen][i%eventChunkLen].event(i+1))
	}
	return out
}
