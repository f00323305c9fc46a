// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock through a time-ordered event queue.
// Events scheduled for the same instant fire in scheduling order (stable
// FIFO tie-breaking), which makes simulations fully deterministic given
// deterministic event handlers. All Meryn substrates (VM manager, cloud
// providers, frameworks, managers) run on top of one Engine.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the
// simulation start. The zero Time is the simulation start.
type Time = time.Duration

// Forever is a convenient horizon for Run when the simulation should be
// driven until the event queue drains.
const Forever Time = math.MaxInt64

// event is one scheduled callback. A nil fn marks a cancelled (or
// recycled) record.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant; 0 once recycled
	fn  func()
	// period > 0 marks a periodic series (Every): the record re-arms in
	// place after each firing and is never recycled, so its Timer
	// handle stays valid for the series' whole life.
	period Time
}

// before reports whether ev dispatches ahead of o: by time, then by
// scheduling order.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool { return q[i].before(q[j]) }

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; run independent simulations in separate Engines
// (see exp.Pool for parallel sweeps).
//
// Pending events live in one of three queues, each kept in (time, seq)
// order:
//
//   - the ring, a FIFO of events at the current instant (Schedule(0)
//     cascades, e.g. bid-round fan-outs);
//   - the lane, a FIFO of future events scheduled in nondecreasing time
//     — a time-sorted bulk submission appends its arrivals here in O(1)
//     each instead of sifting them through the heap;
//   - the heap, for every other future event.
//
// An event joins the ring when its time is the present, else the lane
// when its time is at or after the lane's tail, else the heap. Sequence
// numbers grow with every scheduling call, so each queue is sorted by
// (time, seq) by construction, and dispatch pops the least of the three
// heads: the global (time, seq) order, exactly what one heap would give.
// Fired events are recycled through a free list, so steady-state
// simulation (handlers scheduling follow-up events, timers armed and
// cancelled) allocates nothing after warm-up.
type Engine struct {
	now     Time
	queue   eventQueue
	ring    []*event // FIFO of events at the current instant
	ringPos int      // consumption cursor into ring
	lane    []*event // FIFO of future events in nondecreasing time
	lanePos int      // consumption cursor into lane
	free    []*event // recycled event records
	seq     uint64
	running bool
	stopped bool
	fired   uint64
}

// alloc takes an event record from the free list (or allocates one) and
// stamps it with the next sequence number.
func (e *Engine) alloc(at Time, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	e.seq++
	*ev = event{at: at, seq: e.seq, fn: fn}
	return ev
}

// recycle returns a dispatched (or cancelled) one-shot event to the free
// list, dropping its callback so closures are not retained and zeroing
// its seq so stale Timer handles no longer match it. Series records are
// only disarmed: their handles keep pointing at them.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	if ev.period > 0 {
		return
	}
	ev.seq = 0
	e.free = append(e.free, ev)
}

// add enqueues fn at absolute time t (clamped to the present).
func (e *Engine) add(t Time, fn func()) *event {
	if fn == nil {
		panic("sim: scheduling a nil func")
	}
	if t < e.now {
		t = e.now
	}
	ev := e.alloc(t, fn)
	e.enqueue(ev)
	return ev
}

// enqueue files a stamped event into the ring, the lane or the heap.
func (e *Engine) enqueue(ev *event) {
	switch {
	case ev.at == e.now:
		e.ring = append(e.ring, ev)
	case len(e.lane) == 0 || ev.at >= e.lane[len(e.lane)-1].at:
		if n := len(e.lane); n == cap(e.lane) && 2*e.lanePos >= n {
			// Full, and at least half consumed: reuse the consumed prefix
			// instead of growing, so a lane that never drains completely
			// stays O(pending) in memory.
			k := copy(e.lane, e.lane[e.lanePos:])
			clear(e.lane[k:])
			e.lane, e.lanePos = e.lane[:k], 0
		}
		e.lane = append(e.lane, ev)
	default:
		heap.Push(&e.queue, ev)
	}
}

// Queues, as named by peek.
const (
	inRing = iota
	inLane
	inHeap
)

// peek returns the earliest queued event by (at, seq) and the queue
// holding it, or nil when nothing is queued.
func (e *Engine) peek() (*event, int) {
	var best *event
	src := inRing
	if e.ringPos < len(e.ring) {
		best = e.ring[e.ringPos]
	}
	if e.lanePos < len(e.lane) {
		if ev := e.lane[e.lanePos]; best == nil || ev.before(best) {
			best, src = ev, inLane
		}
	}
	if len(e.queue) > 0 {
		if ev := e.queue[0]; best == nil || ev.before(best) {
			best, src = ev, inHeap
		}
	}
	return best, src
}

// popNext removes and returns the earliest queued event. It returns nil
// — leaving the event queued — when nothing remains or the earliest
// event lies beyond the horizon.
func (e *Engine) popNext(until Time) *event {
	ev, src := e.peek()
	if ev == nil || ev.at > until {
		return nil
	}
	switch src {
	case inRing:
		e.ring[e.ringPos] = nil
		e.ringPos++
		if e.ringPos == len(e.ring) {
			e.ring = e.ring[:0]
			e.ringPos = 0
		}
	case inLane:
		e.lane[e.lanePos] = nil
		e.lanePos++
		if e.lanePos == len(e.lane) {
			e.lane = e.lane[:0]
			e.lanePos = 0
		}
	default:
		heap.Pop(&e.queue)
	}
	return ev
}

// fire dispatches one popped event and reports whether its callback ran
// (false: it was cancelled, and is dropped). A periodic series re-arms
// after its callback returns, unless the callback cancelled it.
func (e *Engine) fire(ev *event) bool {
	fn := ev.fn
	if fn == nil {
		e.recycle(ev)
		return false
	}
	e.now = ev.at
	e.fired++
	if ev.period == 0 {
		e.recycle(ev)
		fn()
		return true
	}
	fn()
	if ev.fn != nil {
		e.seq++
		ev.at, ev.seq = e.now+ev.period, e.seq
		e.enqueue(ev)
	}
	return true
}

// NewEngine returns an Engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int {
	return len(e.queue) + len(e.ring) - e.ringPos + len(e.lane) - e.lanePos
}

// Schedule runs fn after delay. A negative delay is an error in the
// caller; it is clamped to zero so the event fires at the current instant
// (after already-queued events for that instant).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the present. A nil fn panics.
func (e *Engine) At(t Time, fn func()) { e.add(t, fn) }

// Timer is a handle on a callback scheduled by After or Every. It is a
// small value — arming and cancelling one allocate nothing — and it
// names a one-shot event by record and sequence number, so a handle that
// outlives its event (fired, or cancelled and recycled into a later
// event) is inert. The zero Timer is valid and inactive.
type Timer struct {
	ev  *event
	seq uint64 // the armed event's seq; 0 for a series, which re-arms under fresh seqs
}

// Active reports whether the timer's callback is still due: a one-shot
// timer not yet fired or cancelled, or a series not yet cancelled.
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.fn != nil && (t.seq == 0 || t.ev.seq == t.seq)
}

// Cancel prevents the timer's callback from firing (a series stops).
// Cancelling a fired, cancelled or zero timer is a no-op.
func (t *Timer) Cancel() {
	if t.Active() {
		t.ev.fn = nil
	}
}

// After schedules fn like Schedule but returns a Timer that can cancel it.
func (e *Engine) After(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	ev := e.add(e.now+delay, fn)
	return Timer{ev: ev, seq: ev.seq}
}

// Every schedules fn to run periodically with the given period, starting
// after one period. The returned Timer cancels the series. A non-positive
// period panics: it would live-lock the simulation.
func (e *Engine) Every(period Time, fn func()) Timer {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive period %v", period))
	}
	ev := e.add(e.now+period, fn)
	ev.period = period
	return Timer{ev: ev}
}

// Stop aborts Run after the current event handler returns.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in time order until the queue is empty, the
// horizon is passed, or Stop is called. It returns the time of the last
// dispatched event (or the current time if none fired). Events scheduled
// exactly at the horizon still fire.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for !e.stopped {
		ev := e.popNext(until)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if !e.stopped && until != Forever && e.now < until {
		// Advance the clock to the horizon (standard DES semantics):
		// callers that intervene between Run calls — e.g. suspending a
		// job "at time t" — must observe Now() == t even when the next
		// queued event lies beyond the horizon.
		e.now = until
	}
	return e.now
}

// RunAll drives the simulation until no events remain.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// Step dispatches exactly one (non-cancelled) event and reports whether
// one was found. It lets callers interleave simulation progress with
// external termination conditions — e.g. "run until the workload
// settles" in the presence of self-renewing events like crash injection.
func (e *Engine) Step() bool {
	for {
		ev := e.popNext(Forever)
		if ev == nil {
			return false
		}
		if e.fire(ev) {
			return true
		}
	}
}

// Seconds converts a float64 number of seconds to virtual Time. It is the
// conversion used throughout the Meryn model, where paper quantities are
// expressed in seconds. Rounding (not truncation) makes
// Seconds(ToSeconds(t)) == t for all simulation-scale t.
func Seconds(s float64) Time { return Time(math.Round(s * float64(time.Second))) }

// ToSeconds converts virtual Time to float64 seconds.
func ToSeconds(t Time) float64 { return t.Seconds() }
