package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"

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
func (s *Session) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("t=%d;", s.p.Eng.Now())
	for _, id := range s.order {
		digestStatus(h, s.negs[id].statusLocked())
	}
	for _, name := range s.p.cmOrder {
		cm := s.p.cms[name]
		w("vc=%s|%s|%d|%d|%d|%d|%d;", cm.name, cm.cfg.Type, cm.cfg.InitialVMs,
			cm.avail, cm.OwnedPrivate, len(cm.nodes), len(cm.apps))
	}
	// Fired-event counts stay out: they count engine bookkeeping (audit
	// ticks, controller wake-ups), not observable state, and hashing them
	// now would move every digest recorded in journals and tests.
	w("m=%d|%d|%d|%d;", s.p.PrivateUsed.Value(), s.p.CloudUsed.Value(),
		s.submitted, s.submitted-s.p.remaining)
	for _, prov := range s.p.Clouds {
		w("cloud=%g|%g;", prov.TotalSpend, prov.SpotSpend)
	}
	// Counters in struct-field order: deterministic, and counters added
	// later are covered automatically (same idiom as the auditor).
	rv := reflect.ValueOf(&s.p.Counters).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if c, ok := rv.Field(i).Addr().Interface().(*metrics.Counter); ok {
			w("c%d=%d;", i, c.Count)
		}
	}
	return h.Sum64()
}

// digestStatus hashes one submission snapshot field by field (never
// %+v: the struct carries pointers, whose addresses are run-local).
func digestStatus(h io.Writer, st AppStatus) {
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
