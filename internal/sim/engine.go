// Package sim provides the simulated-time kernel shared by every model in
// the repository: the picosecond Time type, the seeded RNG, and the Engine,
// a deterministic event timeline.
//
// The timing models do not run on the Engine. Infinity Fabric links, HBM
// channels, Infinity Cache slices and CU slots are busy-until reservations:
// each request computes its completion time from the resource's next free
// instant and returns it. The Engine carries the few events that happen at
// a point in simulated time rather than per request — RAS fault injection,
// telemetry sampling and run milestones — a few hundred events for the
// whole evaluation suite.
//
// Time is measured in integer picoseconds (type Time) so that link
// serialization delays, cache hit latencies, and multi-GHz clock periods can
// all be expressed exactly without floating-point drift. Events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation in this repository fully deterministic for a given seed.
//
// The event queue is a binary min-heap over value-typed event slots
// recycled through a free list, so steady-state scheduling allocates
// nothing (see queue.go). Handler classes are interned Class handles
// (eng.Class("ras.fault") once at setup, integer IDs on the hot path).
package sim

import (
	"fmt"
	"time"
)

// Handler is a callback fired when an event's time arrives.
type Handler func(now Time)

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is inert: cancelling it reports false.
type EventID struct {
	idx int32
	gen uint32
}

// Engine is a deterministic event timeline: handlers fire in simulated
// time order, FIFO among equal timestamps.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Interned handler classes (see class.go). Slot 0 is ClassDefault.
	classes  []classInfo
	classIdx map[string]Class

	// Event slot arena, its free list, and the min-heap of queued slots
	// (see queue.go).
	events []event
	free   []int32
	heap   []int32

	fired uint64
	hwm   int

	hooks     []Hook
	profiling bool
}

// NewEngine returns an engine positioned at time zero with an empty queue
// and ClassDefault pre-interned.
func NewEngine() *Engine {
	return &Engine{
		classes:  []classInfo{{name: DefaultClass}},
		classIdx: map[string]Class{DefaultClass: ClassDefault},
		// Arena slot 0 is a permanent dummy (never allocated, never freed)
		// so the zero EventID{idx: 0} can never match a real event.
		events: []event{{pos: -1}},
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events still queued (Forever sentinels
// included; cancelled events leave the queue at once).
func (e *Engine) Pending() int { return len(e.heap) }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Quiescent reports whether the engine has reached its natural end state:
// every remaining live event is parked at Forever (sentinels that never
// fire) or the queue is drained entirely. A RunAll that returns with the
// engine non-quiescent left real future work unexecuted — the audit layer
// flags that as a violated drain invariant.
func (e *Engine) Quiescent() bool {
	_, ok := e.nextLive()
	return !ok
}

// QueueHighWater reports the deepest the event queue has ever been.
func (e *Engine) QueueHighWater() int { return e.hwm }

// Schedule queues fn to run at absolute time at under the interned class
// handle (obtain one at setup time with Engine.Class; ClassDefault is
// always valid). Scheduling in the past (before Now) panics: it indicates
// a causality bug in a component model.
func (e *Engine) Schedule(at Time, class Class, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q event at %v before now %v", e.ClassName(class), at, e.now))
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: invariant violated: %q event scheduled with a nil handler", e.ClassName(class)))
	}
	if class < 0 || int(class) >= len(e.classes) {
		panic(fmt.Sprintf("sim: schedule with Class %d not interned on this engine", class))
	}
	e.seq++
	idx := e.alloc()
	ev := &e.events[idx]
	ev.at, ev.seq, ev.fn, ev.class = at, e.seq, fn, class
	e.push(idx)
	if len(e.heap) > e.hwm {
		e.hwm = len(e.heap)
	}
	return EventID{idx: idx, gen: ev.gen}
}

// After queues fn to run d picoseconds from now under class. A negative d
// panics via Schedule with the class name in the message — an earlier
// version silently clamped it to 0, which hid causality bugs until the
// stale event fired far from the buggy caller.
func (e *Engine) After(d Time, class Class, fn Handler) EventID {
	return e.Schedule(e.now+d, class, fn)
}

// Cancel removes a previously scheduled event from the queue and frees its
// slot. It returns false if the event already fired or was already
// cancelled.
func (e *Engine) Cancel(id EventID) bool {
	if id.idx <= 0 || int(id.idx) >= len(e.events) {
		return false
	}
	ev := &e.events[id.idx]
	if ev.pos < 0 || ev.gen != id.gen {
		return false
	}
	e.remove(int(ev.pos))
	e.reclaim(id.idx)
	return true
}

// fire pops the heap head (which nextLive just returned), advances the
// clock, and runs the handler. The slot is reclaimed before the handler
// runs, so a handler cancelling its own in-flight ID sees a stale
// generation and reports false — the historical cancel-after-pop contract.
func (e *Engine) fire(idx int32) {
	ev := &e.events[idx]
	at, fn, class := ev.at, ev.fn, ev.class
	if at < e.now {
		panic(fmt.Sprintf("sim: invariant violated: event %q at %v fires before now %v (time moved backwards)", e.ClassName(class), at, e.now))
	}
	e.remove(0)
	e.reclaim(idx)
	e.now = at
	e.fired++
	if len(e.hooks) == 0 && !e.profiling {
		fn(at)
		return
	}
	start := time.Now()
	fn(at)
	wall := time.Since(start)
	if e.profiling {
		ci := &e.classes[class]
		ci.fired++
		ci.wallNS += wall.Nanoseconds()
	}
	for _, h := range e.hooks {
		h.EventDone(class, at, wall)
	}
}

// Run executes events until the queue drains or the next event would occur
// after the deadline. It returns the number of events fired. Events exactly
// at the deadline are executed — except events scheduled at Forever, which
// never fire: Forever is a sentinel time ("no deadline"), and an event
// parked there stays pending through any Run, including RunAll. On return,
// Now is advanced to the deadline if the queue drained earlier (so
// back-to-back Run calls compose), except when deadline is Forever, in
// which case Now rests at the last event time.
//
// A deadline earlier than Now is a no-op: Run means "execute everything up
// to at least deadline", which already holds, and the clock never moves
// backwards. AdvanceTo pins the same clamp semantics, so "run to T" and
// "advance to T" are both idempotent. (Scheduling in the past, by
// contrast, stays a panic — that is a causality bug, not a clamp.)
func (e *Engine) Run(deadline Time) uint64 {
	var n uint64
	for {
		idx, ok := e.nextLive()
		if !ok || e.events[idx].at > deadline {
			break
		}
		e.fire(idx)
		n++
	}
	if deadline != Forever && e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunAll executes events until the queue is fully drained.
func (e *Engine) RunAll() uint64 { return e.Run(Forever) }

// AdvanceTo moves the clock forward to at without firing events: "ensure
// Now is at least at". A target earlier than Now is a no-op, matching
// Run's clamp semantics for past deadlines — both operations are
// idempotent and never move the clock backwards. It panics if live events
// earlier than at are still pending, because silently skipping them would
// fire them later with a stale notion of "now".
func (e *Engine) AdvanceTo(at Time) {
	if at < e.now {
		return
	}
	if idx, ok := e.nextLive(); ok && e.events[idx].at < at {
		ev := &e.events[idx]
		panic(fmt.Sprintf("sim: invariant violated: AdvanceTo(%v) would skip a pending %q event at %v", at, e.ClassName(ev.class), ev.at))
	}
	e.now = at
}
