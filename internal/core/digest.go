package core

import (
	"reflect"
	"strconv"

	"meryn/internal/metrics"
)

// Digest returns a deterministic FNV-1a fingerprint of the session's
// externally observable state: the virtual clock, every submission
// snapshot (negotiation view and accounting record), every virtual
// cluster and the platform metrics, counters included. Two sessions
// that replayed the same action history to the same virtual time hash
// identically — the durable layer stores the digest in each snapshot so
// recovery can verify that replay rebuilt the state byte-for-byte
// rather than merely plausibly.
//
// The bytes hashed are defined by fmt format strings, kept in
// referenceDigest (digest_test.go); Digest writes the same bytes with
// strconv, so it allocates nothing.
func (s *Session) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := digestWriter{h: fnvOffset}
	w.d("t=", int64(s.p.Eng.Now()))
	w.end()
	for _, id := range s.order {
		w.status(s.negs[id].statusLocked())
	}
	for _, name := range s.p.cmOrder {
		cm := s.p.cms[name]
		w.s("vc=", cm.name)
		w.s("|", string(cm.cfg.Type))
		w.d("|", int64(cm.cfg.InitialVMs))
		w.d("|", int64(cm.avail))
		w.d("|", int64(cm.OwnedPrivate))
		w.d("|", int64(len(cm.attached)))
		w.d("|", int64(len(cm.apps)))
		w.end()
	}
	// Fired-event counts stay out: they count engine bookkeeping (audit
	// ticks, controller wake-ups), not observable state, and hashing them
	// now would move every digest recorded in journals and tests.
	w.d("m=", int64(s.p.PrivateUsed.Value()))
	w.d("|", int64(s.p.CloudUsed.Value()))
	w.d("|", int64(s.submitted))
	w.d("|", int64(s.submitted-s.p.remaining))
	w.end()
	for _, prov := range s.p.Clouds {
		w.g("cloud=", prov.TotalSpend)
		w.g("|", prov.SpotSpend)
		w.end()
	}
	// Counters in struct-field order: deterministic, and counters added
	// later are covered automatically (same idiom as the auditor).
	rv := reflect.ValueOf(&s.p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			w.d("c", int64(i))
			w.d("=", c.Count)
			w.end()
		}
	}
	return w.h
}

// status hashes one submission snapshot field by field (never %+v: the
// struct carries pointers, whose addresses are run-local).
func (w *digestWriter) status(st AppStatus) {
	w.s("app=", st.ID)
	w.s("|", st.VC)
	w.s("|", st.Type)
	w.s("|", string(st.Phase))
	w.d("|", int64(st.Round))
	w.q("|", st.Rejection)
	w.end()
	for _, o := range st.Offers {
		w.d("o=", int64(o.NumVMs))
		w.d("|", int64(o.Deadline))
		w.g("|", o.Price)
		w.end()
	}
	if c := st.Contract; c != nil {
		w.d("k=", int64(c.NumVMs))
		w.d("|", int64(c.Deadline))
		w.g("|", c.Price)
		w.g("|", c.VMPrice)
		w.d("|", int64(c.ExecEst))
		w.g("|", c.PenaltyN)
		w.g("|", c.MaxPenaltyFrac)
		w.end()
		if c.SLO != nil {
			w.d("slo=", int64(c.SLO.TargetP95))
			w.g("|", c.SLO.Availability)
			w.d("|", int64(c.SLO.Interval))
			w.g("|", c.SLO.PenaltyPerInterval)
			w.end()
		}
	}
	w.d("x=", int64(st.SubmitTime))
	w.d("|", int64(st.StartTime))
	w.d("|", int64(st.EndTime))
	w.d("|", int64(st.Deadline))
	w.g("|", st.Price)
	w.g("|", st.Penalty)
	w.g("|", st.Cost)
	w.d("|", int64(st.NumVMs))
	w.d("|", int64(st.Placement))
	w.d("|", int64(st.Replicas))
	w.d("|", int64(st.Suspensions))
	w.end()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digestWriter feeds an FNV-1a hash. Each of s, d, g and q hashes a
// literal, then one value formatted as the fmt verb it is named after
// (%s, %d, %g, %q) formats it; end closes a record with ';'. Numbers
// and quotes are formatted into a stack buffer.
type digestWriter struct {
	h   uint64
	buf [128]byte
}

func (w *digestWriter) s(lit, v string) {
	w.h = fnv1a(fnv1a(w.h, lit), v)
}

func (w *digestWriter) d(lit string, v int64) {
	w.h = fnv1a(fnv1a(w.h, lit), strconv.AppendInt(w.buf[:0], v, 10))
}

func (w *digestWriter) g(lit string, v float64) {
	w.h = fnv1a(fnv1a(w.h, lit), strconv.AppendFloat(w.buf[:0], v, 'g', -1, 64))
}

func (w *digestWriter) q(lit, v string) {
	w.h = fnv1a(fnv1a(w.h, lit), strconv.AppendQuote(w.buf[:0], v))
}

func (w *digestWriter) end() { w.h = fnv1a(w.h, ";") }

func fnv1a[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime
	}
	return h
}
