package sim

import (
	"fmt"
	"testing"
)

// ---------------------------------------------------------------------------
// Differential test: the heap queue vs a trivially-correct reference
// engine.
//
// The reference implementation is the spec made executable: a flat slice
// of events popped by linear minimum scan over (at, seq). It is obviously
// correct and obviously slow. The same randomized workload program runs
// against both engines; any divergence in firing order — across near and
// far horizons, equal-timestamp bursts, Forever sentinels, or cancel
// interleavings — shows up as a trace mismatch.
// ---------------------------------------------------------------------------

// scheduler is the minimal surface the differential driver needs; both
// the real Engine and the reference engine implement it.
type scheduler interface {
	schedule(at Time, fn func(Time)) (cancel func() bool)
	now() Time
	runAll()
}

// engineSched adapts *Engine.
type engineSched struct{ e *Engine }

func (s engineSched) schedule(at Time, fn func(Time)) func() bool {
	id := s.e.Schedule(at, ClassDefault, fn)
	return func() bool { return s.e.Cancel(id) }
}
func (s engineSched) now() Time { return s.e.Now() }
func (s engineSched) runAll()   { s.e.RunAll() }

// refEvent / refEngine: the executable spec.
type refEvent struct {
	at        Time
	seq       uint64
	fn        func(Time)
	cancelled bool
	fired     bool
}

type refEngine struct {
	clock  Time
	seq    uint64
	events []*refEvent
}

func (r *refEngine) schedule(at Time, fn func(Time)) func() bool {
	if at < r.clock {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", at, r.clock))
	}
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	r.events = append(r.events, ev)
	return func() bool {
		if ev.cancelled || ev.fired {
			return false
		}
		ev.cancelled = true
		return true
	}
}

func (r *refEngine) now() Time { return r.clock }

func (r *refEngine) runAll() {
	for {
		var best *refEvent
		for _, ev := range r.events {
			if ev.cancelled || ev.fired || ev.at == Forever {
				continue
			}
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best = ev
			}
		}
		if best == nil {
			return
		}
		best.fired = true
		r.clock = best.at
		best.fn(best.at)
	}
}

// Workload horizons: a near span of 1024 ps and a far span of 262144 ps.
// The delays below draw within, across and beyond them.
const (
	nearSpan = Time(1024)
	farSpan  = Time(262144)
)

// runWorkload executes one deterministic randomized workload program on s
// and returns the firing trace. Every random draw is keyed to the event's
// own label-forked stream, so the program is a pure function of the seed
// and the scheduler's firing order — identical engines produce identical
// traces; divergent engines diverge visibly.
func runWorkload(s scheduler, seed uint64, roots, depth int) []string {
	var trace []string
	var cancels []func() bool
	root := NewRNG(seed)

	var spawn func(label string, d int) func(Time)
	spawn = func(label string, d int) func(Time) {
		rng := NewRNG(seed).Fork(hashLabel(label))
		return func(now Time) {
			trace = append(trace, fmt.Sprintf("%s@%d", label, now))
			if d <= 0 {
				return
			}
			kids := rng.Intn(3)
			for k := 0; k < kids; k++ {
				var delta Time
				switch rng.Intn(5) {
				case 0:
					delta = 0 // same-instant cascade: FIFO among equals
				case 1:
					delta = Time(rng.Intn(int(nearSpan))) // within ~1 ns
				case 2:
					delta = Time(rng.Intn(int(farSpan))) // within ~262 ns
				case 3:
					delta = farSpan + Time(rng.Intn(int(8*farSpan))) // far future
				case 4:
					delta = Time(rng.Intn(64)) // dense near-future collisions
				}
				child := fmt.Sprintf("%s.%d", label, k)
				cancels = append(cancels, s.schedule(now+delta, spawn(child, d-1)))
			}
			// Cancel a previously issued handle (possibly already fired,
			// possibly our own descendant, possibly a far-future event).
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		}
	}

	for i := 0; i < roots; i++ {
		at := Time(root.Intn(int(4 * farSpan)))
		cancels = append(cancels, s.schedule(at, spawn(fmt.Sprintf("r%d", i), depth)))
	}
	// A couple of Forever sentinels: they must never fire, and one gets
	// cancelled mid-setup.
	c := s.schedule(Forever, func(Time) { trace = append(trace, "forever-fired!") })
	s.schedule(Forever, func(Time) { trace = append(trace, "forever-fired!") })
	c()
	s.runAll()
	return trace
}

// hashLabel derives a stable fork key from an event label (FNV-1a).
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func TestWheelMatchesReferenceEngine(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		got := runWorkload(engineSched{NewEngine()}, seed, 8, 4)
		want := runWorkload(&refEngine{}, seed, 8, 4)
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at event %d: engine %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// TestWheelEqualTimestampFIFO pins the determinism contract directly:
// events at one instant fire in schedule order, even when they arrive
// interleaved with other instants and from inside handlers.
func TestWheelEqualTimestampFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	const at = 5 * Microsecond
	for i := 0; i < 500; i++ {
		i := i
		e.Schedule(at, ClassDefault, func(Time) { order = append(order, i) })
		// Interleave a different instant so the queue holds a mix.
		e.Schedule(at+Nanosecond, ClassDefault, func(Time) {})
	}
	// Same-instant events scheduled from a handler fire after all earlier
	// ones at that instant, still in schedule order.
	e.Schedule(at, ClassDefault, func(now Time) {
		e.Schedule(now, ClassDefault, func(Time) { order = append(order, 1000) })
	})
	e.RunAll()
	if len(order) != 501 {
		t.Fatalf("fired %d ordered events, want 501", len(order))
	}
	for i := 0; i < 500; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d", i, order[i], i)
		}
	}
	if order[500] != 1000 {
		t.Fatalf("in-handler same-instant event fired at position %d", order[500])
	}
}

// TestWheelWindowJumpAndRewind schedules into the gap between the clock
// and a lone far-future event: the gap events must fire first, in time
// order.
func TestWheelWindowJumpAndRewind(t *testing.T) {
	e := NewEngine()
	var order []Time
	record := func(now Time) { order = append(order, now) }
	far := 100 * farSpan
	e.Schedule(far, ClassDefault, record)
	e.Schedule(1, ClassDefault, record)
	e.Run(1) // fires the near event; only the far one is left
	// Schedule into the gap — earlier than the far event, later than now.
	e.Schedule(50*farSpan, ClassDefault, record)
	e.Schedule(2, ClassDefault, record)
	e.RunAll()
	want := []Time{1, 2, 50 * farSpan, far}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation guards: the slot arena keeps steady state allocation-free.
// ---------------------------------------------------------------------------

// TestSteadyStateScheduleZeroAllocs pins 0 allocs/op for the canonical
// hot path: a handler rescheduling itself a few ns out, one Step per op.
func TestSteadyStateScheduleZeroAllocs(t *testing.T) {
	e := NewEngine()
	cls := e.Class("bench.tick")
	var fn Handler
	fn = func(now Time) { e.Schedule(now+10, cls, fn) }
	e.Schedule(0, cls, fn)
	for i := 0; i < 4096; i++ { // warm the arena, heap and free list
		e.step()
	}
	allocs := testing.AllocsPerRun(2000, func() { e.step() })
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %.2f/op, want 0", allocs)
	}
}

// TestScheduleCancelZeroAllocs pins 0 allocs/op for a schedule-then-cancel
// round trip once the arena is warm.
func TestScheduleCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	cls := e.Class("bench.cancel")
	fn := func(Time) {}
	for i := 0; i < 4096; i++ {
		e.Cancel(e.Schedule(e.Now()+1000, cls, fn))
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.Cancel(e.Schedule(e.Now()+1000, cls, fn))
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel allocates %.2f/op, want 0", allocs)
	}
}

// TestCancelledEventsDoNotRetainMemory pins the retention fix: a
// schedule/cancel loop must recycle slots instead of growing the arena,
// even with a standing population of live events, and a cancelled event
// must leave the queue at once. The historical bug kept every cancelled
// event queued until its timestamp was reached.
func TestCancelledEventsDoNotRetainMemory(t *testing.T) {
	e := NewEngine()
	cls := e.Class("churn")
	fn := func(Time) {}
	// Standing live population, far in the future.
	for i := 0; i < 32; i++ {
		e.Schedule(10*Millisecond+Time(i), cls, fn)
	}
	for i := 0; i < 200_000; i++ {
		e.Cancel(e.Schedule(e.Now()+Microsecond, cls, fn))
	}
	// The arena holds the dummy slot 0, the 32 live events and the one
	// slot the churn recycles, nowhere near the 200k churned events.
	if got := len(e.events); got != 34 {
		t.Errorf("arena grew to %d slots after 200k schedule/cancel churn, want 34", got)
	}
	if e.Pending() != 32 {
		t.Errorf("Pending = %d after churn, want exactly the 32 live events", e.Pending())
	}
	// The survivors still fire.
	if fired := e.RunAll(); fired != 32 {
		t.Errorf("survivors fired = %d, want 32", fired)
	}
}

// TestCancelSelfInsideHandler pins the cancel-after-pop contract: by the
// time a handler runs, its own ID is stale.
func TestCancelSelfInsideHandler(t *testing.T) {
	e := NewEngine()
	var id EventID
	var got bool
	id = e.Schedule(5, ClassDefault, func(Time) { got = e.Cancel(id) })
	e.RunAll()
	if got {
		t.Error("handler cancelled its own in-flight event; Cancel should report false")
	}
	if e.Fired() != 1 || e.Pending() != 0 {
		t.Errorf("Fired/Pending = %d/%d, want 1/0", e.Fired(), e.Pending())
	}
}

// TestEventIDZeroValueInert pins that the zero EventID never cancels
// anything — including the first event ever scheduled on a fresh engine.
func TestEventIDZeroValueInert(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(1, ClassDefault, func(Time) { fired = true })
	if e.Cancel(EventID{}) {
		t.Error("zero EventID cancelled something")
	}
	e.RunAll()
	if !fired {
		t.Error("first scheduled event never fired")
	}
}

// TestCancelMidHeapAndSentinel cancels events from the middle of the heap
// and a Forever sentinel: the survivors fire in (at, seq) order, and
// Pending and QueueHighWater count exactly the queued events.
func TestCancelMidHeapAndSentinel(t *testing.T) {
	e := NewEngine()
	var order []int
	ids := make([]EventID, 12)
	for i, at := range []Time{70, 30, 110, 10, 90, 50, 30, 120, 20, 80, 60, 100} {
		i := i
		ids[i] = e.Schedule(at, ClassDefault, func(Time) { order = append(order, i) })
	}
	keep := e.Schedule(Forever, ClassDefault, func(Time) { order = append(order, -1) })
	drop := e.Schedule(Forever, ClassDefault, func(Time) { order = append(order, -2) })
	if e.Pending() != 14 || e.QueueHighWater() != 14 {
		t.Fatalf("Pending/QueueHighWater = %d/%d, want 14/14", e.Pending(), e.QueueHighWater())
	}
	for _, i := range []int{5, 1, 9, 2} { // at 50, 30 (first of two), 80, 110
		if !e.Cancel(ids[i]) {
			t.Fatalf("Cancel(ids[%d]) reported false for a queued event", i)
		}
	}
	if !e.Cancel(drop) {
		t.Fatal("Cancel reported false for a queued Forever sentinel")
	}
	if e.Pending() != 9 || e.QueueHighWater() != 14 {
		t.Fatalf("after 5 cancels Pending/QueueHighWater = %d/%d, want 9/14", e.Pending(), e.QueueHighWater())
	}
	if fired := e.RunAll(); fired != 8 {
		t.Fatalf("RunAll fired %d events, want 8", fired)
	}
	want := []int{3, 8, 6, 10, 0, 4, 11, 7} // at 10, 20, 30, 60, 70, 90, 100, 120
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
	if e.Pending() != 1 || !e.Quiescent() {
		t.Fatalf("Pending = %d, Quiescent = %v; want only the kept sentinel", e.Pending(), e.Quiescent())
	}
	if !e.Cancel(keep) || e.Pending() != 0 {
		t.Fatalf("cancelling the last sentinel left Pending = %d", e.Pending())
	}
}
