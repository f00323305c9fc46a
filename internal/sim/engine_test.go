package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("final Now() = %v, want 3s", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var events []string
	e.Schedule(time.Second, func() {
		events = append(events, "a")
		e.Schedule(time.Second, func() { events = append(events, "c") })
		e.Schedule(0, func() { events = append(events, "b") })
	})
	e.RunAll()
	if len(events) != 3 || events[0] != "a" || events[1] != "b" || events[2] != "c" {
		t.Fatalf("events = %v, want [a b c]", events)
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5*time.Second, func() {
		e.Schedule(-time.Hour, func() { fired = true })
	})
	e.RunAll()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s (clamped)", e.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	e.Run(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %v within horizon 2s, want exactly events 1,2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %v after RunAll, want 3 events", fired)
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	e := NewEngine()
	e.Run(10 * time.Second)
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want horizon 10s", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	tm.Cancel()
	e.RunAll()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	// Cancelling again must be a no-op.
	tm.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel() // must not panic
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	NewEngine().At(0, nil)
}

// Heap events carrying the same timestamp as ring events were scheduled
// earlier (lower seq) and must fire first: A fires at 1s, schedules B for
// "now"; C was already queued for 1s and must precede B.
func TestSameInstantHeapBeforeRing(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(time.Second, func() {
		got = append(got, "a")
		e.Schedule(0, func() { got = append(got, "b") })
	})
	e.Schedule(time.Second, func() { got = append(got, "c") })
	e.RunAll()
	if len(got) != 3 || got[0] != "a" || got[1] != "c" || got[2] != "b" {
		t.Fatalf("order = %v, want [a c b]", got)
	}
}

// A cancelled same-instant timer (ring path) must not fire.
func TestTimerCancelSameInstant(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(time.Second, func() {
		tm := e.After(0, func() { fired = true })
		tm.Cancel()
	})
	e.RunAll()
	if fired {
		t.Fatal("cancelled same-instant timer fired")
	}
}

// Recycled event records must not leak state between uses: interleave
// scheduling, cancellation and dispatch over many rounds and count fires.
func TestEventPoolRecycling(t *testing.T) {
	e := NewEngine()
	fired, cancelled := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 10; i++ {
			e.Schedule(time.Duration(i)*time.Millisecond, func() { fired++ })
		}
		tm := e.After(time.Millisecond, func() { cancelled++ })
		tm.Cancel()
		e.RunAll()
	}
	if fired != 500 {
		t.Fatalf("fired = %d, want 500", fired)
	}
	if cancelled != 0 {
		t.Fatalf("cancelled timers fired %d times", cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

// After and Cancel allocate nothing on a warmed engine: the Timer is a
// value naming a pooled event record.
func TestTimerAfterCancelAllocsZero(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	run := func() {
		cancelled := e.After(time.Second, fn)
		e.After(2*time.Second, fn)
		cancelled.Cancel()
		e.RunAll()
	}
	run() // warm the free list and the queues' capacity
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Fatalf("After+Cancel+dispatch allocated %.1f times per run, want 0", allocs)
	}
}

// A handle that outlives its event is inert: once the record is recycled
// into a later event, cancelling the stale handle must not disarm it.
func TestTimerStaleHandleIsInert(t *testing.T) {
	e := NewEngine()
	stale := e.After(time.Second, func() {})
	e.RunAll()
	if stale.Active() {
		t.Fatal("fired timer still active")
	}
	fired := false
	fresh := e.After(time.Second, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("the pooled record was not reused; the test exercises nothing")
	}
	stale.Cancel()
	if !fresh.Active() {
		t.Fatal("a stale handle disarmed its record's new event")
	}
	e.RunAll()
	if !fired {
		t.Fatal("event cancelled through a stale handle")
	}
}

// A cancelled timer's record stays with its heap entry until the entry
// pops: timers armed meanwhile take other records from a warm free
// list, every pending entry names a record still stamped with the
// entry's own key, and each timer fires at its own time. Once the
// cancelled entry pops, its record returns to the free list.
func TestCancelledHeapRecordNotReused(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 32; i++ {
		e.Schedule(0, func() {})
	}
	e.RunAll() // 32 records on the free list
	// The lane's tail: every timer below lands before it, in the heap.
	e.At(time.Hour, func() {})
	cancelled := e.After(10*time.Second, func() { t.Error("cancelled timer fired") })
	cancelled.Cancel()
	checkEntries := func() {
		t.Helper()
		for _, h := range e.heap {
			if ev := e.recs[h.rec]; ev.at != h.at || ev.seq != h.seq {
				t.Fatalf("heap entry (%v, %d) names record %d, stamped (%v, %d)", h.at, h.seq, h.rec, ev.at, ev.seq)
			}
		}
	}
	var fired []Time
	for i := 1; i <= 20; i++ {
		tm := e.After(Time(i)*time.Second, func() { fired = append(fired, e.Now()) })
		if tm.ev == cancelled.ev {
			t.Fatalf("timer %d took the cancelled record while its heap entry is pending", i)
		}
		checkEntries()
	}
	if len(e.heap) != 21 {
		t.Fatalf("heap holds %d entries, want the cancelled one and 20 armed", len(e.heap))
	}
	e.Run(15 * time.Second)
	checkEntries()
	found := false
	for _, ev := range e.free {
		found = found || ev == cancelled.ev
	}
	if !found {
		t.Fatal("the cancelled record was not recycled once its entry popped")
	}
	e.Run(30 * time.Second)
	if len(fired) != 20 {
		t.Fatalf("%d timers fired, want 20", len(fired))
	}
	for i, at := range fired {
		if want := Time(i+1) * time.Second; at != want {
			t.Fatalf("timer %d fired at %v, want %v", i+1, at, want)
		}
	}
}

// A lane that never drains completely — each firing appends one event
// past the tail, keeping 1000 pending — reuses its consumed prefix
// instead of growing with every event ever scheduled.
func TestLaneReusesConsumedPrefix(t *testing.T) {
	const pending, total = 1000, 100_000
	e := NewEngine()
	var tail, prev Time
	scheduled, fired := 0, 0
	var next func()
	schedule := func() {
		tail += time.Millisecond
		scheduled++
		e.At(tail, next)
	}
	next = func() {
		if e.Now() <= prev {
			t.Fatalf("event at %v fired after one at %v", e.Now(), prev)
		}
		prev = e.Now()
		fired++
		if scheduled < total {
			schedule()
		}
	}
	for i := 0; i < pending; i++ {
		schedule()
	}
	e.RunAll()
	if fired != total {
		t.Fatalf("fired %d events, want %d", fired, total)
	}
	if c := cap(e.lane); c > 4*pending {
		t.Fatalf("lane capacity %d for %d pending events: the consumed prefix is not reused", c, pending)
	}
}

// TestPropertyQueueOrder drives random handlers through every scheduling
// entry point — At, Schedule, After and Cancel, and periodic owners whose
// timer re-arms itself — on top of a sorted bulk pre-schedule (the
// lane), with same-instant ties, past
// times, and times on both sides of the latest time scheduled so far,
// alternating Run horizons with single Steps. Every event that is not
// cancelled must fire exactly once, and dispatch must follow (time,
// scheduling order): the order a single heap gives.
func TestPropertyQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if msg := checkQueueOrder(seed); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

// occurrence is one scheduled callback of the reference model; its
// index in the model is its scheduling order.
type occurrence struct {
	at        Time // effective (clamped) time
	cancelled bool
	fired     int
}

// modelTimer pairs a Timer with the occurrence it would fire next.
type modelTimer struct {
	tm       Timer
	next     int
	periodic bool
	done     bool // periodic owner stopped
}

func checkQueueOrder(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var (
		occ    []*occurrence
		order  []int
		timers []*modelTimer
		fail   string
		tail   Time // latest time scheduled so far
		budget = 400
	)
	newOcc := func(t Time) int {
		if t < e.Now() {
			t = e.Now()
		}
		if t > tail {
			tail = t
		}
		occ = append(occ, &occurrence{at: t})
		return len(occ) - 1
	}
	fired := func(id int) {
		occ[id].fired++
		order = append(order, id)
		if e.Now() != occ[id].at && fail == "" {
			fail = fmt.Sprintf("occurrence %d fired at %v, due at %v", id, e.Now(), occ[id].at)
		}
	}
	// randTime is in the past (clamped), now (a same-instant tie), the
	// near future, at or past the latest time so far, or anywhere up to it.
	randTime := func() Time {
		now := e.Now()
		switch rng.Intn(5) {
		case 0:
			return now - Time(rng.Intn(50))*time.Millisecond
		case 1:
			return now
		case 2:
			return now + Time(rng.Intn(100))*time.Millisecond
		case 3:
			return tail + Time(rng.Intn(3))*time.Millisecond
		default:
			return now + Time(rng.Int63n(int64(tail-now)+1))
		}
	}
	var act func()
	oneShot := func(id int) func() {
		return func() {
			fired(id)
			for k := rng.Intn(4); k > 0; k-- {
				act()
			}
		}
	}
	act = func() {
		if budget == 0 {
			return
		}
		budget--
		switch rng.Intn(5) {
		case 0:
			t := randTime()
			id := newOcc(t)
			e.At(t, oneShot(id))
		case 1:
			d := randTime() - e.Now()
			id := newOcc(e.Now() + d)
			e.Schedule(d, oneShot(id))
		case 2:
			d := randTime() - e.Now()
			id := newOcc(e.Now() + d)
			timers = append(timers, &modelTimer{tm: e.After(d, oneShot(id)), next: id})
		case 3:
			if len(timers) == 0 {
				return
			}
			mt := timers[rng.Intn(len(timers))]
			mt.tm.Cancel()
			if !mt.done && occ[mt.next].fired == 0 {
				occ[mt.next].cancelled = true
			}
			mt.done = mt.periodic
		default:
			// A periodic owner re-arms its one-shot timer as the
			// callback's last step, so the next occurrence is scheduled
			// after everything the callback scheduled.
			period := Time(1+rng.Intn(40)) * time.Millisecond
			ticks := 1 + rng.Intn(4)
			mt := &modelTimer{periodic: true, next: newOcc(e.Now() + period)}
			var tick func()
			tick = func() {
				fired(mt.next)
				for k := rng.Intn(3); k > 0; k-- {
					act()
				}
				if mt.done { // cancelled by one of the actions above
					return
				}
				if ticks--; ticks == 0 {
					mt.done = true
					return
				}
				mt.next = newOcc(e.Now() + period)
				mt.tm = e.After(period, tick)
			}
			mt.tm = e.After(period, tick)
			timers = append(timers, mt)
		}
	}

	// A sorted bulk pre-schedule with ties fills the lane.
	at := Time(0)
	for i := 50 + rng.Intn(300); i > 0; i-- {
		at += Time(rng.Intn(3)) * time.Millisecond
		id := newOcc(at)
		e.At(at, oneShot(id))
	}
	for i := 0; i < 20; i++ {
		act()
	}
	for e.Pending() > 0 {
		if rng.Intn(3) == 0 {
			e.Step()
		} else {
			e.Run(e.Now() + Time(rng.Intn(200))*time.Millisecond)
		}
		if rng.Intn(4) == 0 {
			act() // external scheduling between Run slices
		}
	}

	if fail != "" {
		return fail
	}
	for id, o := range occ {
		if o.cancelled && o.fired != 0 {
			return fmt.Sprintf("cancelled occurrence %d fired", id)
		}
		if !o.cancelled && o.fired != 1 {
			return fmt.Sprintf("occurrence %d fired %d times, want once", id, o.fired)
		}
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if occ[a].at > occ[b].at || (occ[a].at == occ[b].at && a > b) {
			return fmt.Sprintf("occurrence %d (at %v) fired after %d (at %v)", b, occ[b].at, a, occ[a].at)
		}
	}
	return ""
}

func TestFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunAll()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1, 1550, 0.5, 84} {
		if got := ToSeconds(Seconds(s)); got != s {
			t.Fatalf("ToSeconds(Seconds(%v)) = %v", s, got)
		}
	}
}

// Property: events always dispatch in nondecreasing time order, whatever
// the insertion order.
func TestPropertyDispatchOrderSorted(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d % 1000000)
			e.Schedule(d*time.Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheduled event fires exactly once under RunAll.
func TestPropertyAllEventsFireOnce(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		count := 0
		for _, d := range delays {
			e.Schedule(Time(d)*time.Millisecond, func() { count++ })
		}
		e.RunAll()
		return count == len(delays) && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "vmm")
	b := NewRNG(42, "vmm")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+name produced diverging streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, "vmm")
	b := NewRNG(42, "cloud")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names collide too often: %d/64", same)
	}
}

func TestRNGFork(t *testing.T) {
	a := NewRNG(1, "root").Fork("child")
	b := NewRNG(1, "root").Fork("child")
	if a.Int63() != b.Int63() {
		t.Fatal("Fork is not deterministic")
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(7, "range")
	for i := 0; i < 1000; i++ {
		v := r.Range(7, 15)
		if v < 7 || v > 15 {
			t.Fatalf("Range(7,15) = %v out of bounds", v)
		}
	}
	if r.Range(3, 3) != 3 {
		t.Fatal("degenerate range must return lo")
	}
}

func TestRNGRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(hi<lo) did not panic")
		}
	}()
	NewRNG(1, "x").Range(5, 4)
}

// Property: Range always stays within bounds for arbitrary seeds/bounds.
func TestPropertyRNGRangeBounds(t *testing.T) {
	f := func(seed int64, lo float64, span uint16) bool {
		if lo != lo || lo > 1e100 || lo < -1e100 { // reject NaN/huge
			return true
		}
		hi := lo + float64(span)
		v := NewRNG(seed, "p").Range(lo, hi)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Millisecond, func() {})
		}
		e.RunAll()
	}
}

// BenchmarkEngineSteadyState models a long-lived simulation: one engine
// dispatching a self-renewing event chain, the dominant shape inside a
// platform run. With event pooling this is allocation-free per event.
func BenchmarkEngineSteadyState(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	remaining := b.N
	var next func()
	next = func() {
		remaining--
		if remaining > 0 {
			e.Schedule(time.Millisecond, next)
		}
	}
	e.Schedule(time.Millisecond, next)
	e.RunAll()
}

// BenchmarkEngineBulkArrivals models a bulk submission: 100k arrivals
// pre-scheduled in time order, drained alongside a small steady-state
// population of 64 self-renewing in-flight events. One op is one drain
// of a reused engine. The arrivals ride the lane, so the heap holds only
// the in-flight events.
func BenchmarkEngineBulkArrivals(b *testing.B) {
	const arrivals, inflight = 100_000, 64
	e := NewEngine()
	left := 0
	arrive := func() { left-- }
	chains := make([]func(), inflight)
	for k := range chains {
		period := Time(5+3*k) * time.Millisecond
		var tick func()
		tick = func() {
			if left > 0 {
				e.Schedule(period, tick)
			}
		}
		chains[k] = tick
	}
	drain := func() {
		base := e.Now()
		left = arrivals
		for j := 1; j <= arrivals; j++ {
			e.At(base+Time(j)*time.Millisecond, arrive)
		}
		for _, tick := range chains {
			e.Schedule(0, tick)
		}
		e.RunAll()
	}
	drain() // fill the free list: measure the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
}

// BenchmarkEngineSameInstantBurst measures the same-instant fan-out shape
// (Schedule(0) cascades during bid rounds): 1000 events at one instant
// per reused engine, exercising the FIFO fast path instead of the heap.
func BenchmarkEngineSameInstantBurst(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Millisecond, func() {
			for j := 0; j < 999; j++ {
				e.Schedule(0, func() {})
			}
		})
		e.RunAll()
	}
}

// BenchmarkEngineHeapChurn keeps 256 timers in flight at random future
// times, each re-arming itself when it fires, behind one far-future
// event on the lane: every later event lands before the lane's tail, so
// each arm and each dispatch goes through the heap. One op is one
// dispatched event; the delays are drawn up front so the loop times the
// engine alone.
func BenchmarkEngineHeapChurn(b *testing.B) {
	const inflight = 256
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = Time(1+rng.Intn(1000)) * time.Millisecond
	}
	e := NewEngine()
	const horizon = Time(1) << 60
	e.At(horizon, func() {})
	remaining, k := b.N, 0
	var tick func()
	tick = func() {
		if remaining == 0 {
			return
		}
		remaining--
		k++
		e.After(delays[k%len(delays)], tick)
	}
	for i := 0; i < inflight; i++ {
		e.After(delays[i], tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(horizon - 1)
}
