package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// catchTrip runs fn and returns the *WatchdogTrip it panicked with, or
// nil if it returned normally. Any other panic value fails the test.
func catchTrip(t *testing.T, fn func()) (trip *WatchdogTrip) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			wt, ok := p.(*WatchdogTrip)
			if !ok {
				t.Fatalf("panic value %T is not a *WatchdogTrip: %v", p, p)
			}
			trip = wt
		}
	}()
	fn()
	return nil
}

func TestWatchdogLivelockTrips(t *testing.T) {
	eng := NewEngine()
	NewWatchdog(WatchdogConfig{EventBudget: 100}).Install(eng)

	// A handler that reschedules itself at the same instant forever: the
	// classic livelock. Sim time never advances, so RunAll would spin
	// until the heat death of the wall clock without the watchdog.
	cls := eng.Class("livelock")
	var reschedule func(Time)
	reschedule = func(now Time) {
		eng.Schedule(now, cls, reschedule)
	}
	eng.Schedule(10, cls, reschedule)

	trip := catchTrip(t, func() { eng.RunAll() })
	if trip == nil {
		t.Fatal("livelock ran to completion without tripping the watchdog")
	}
	if trip.Reason != "livelock" {
		t.Fatalf("trip reason %q, want livelock", trip.Reason)
	}
	if trip.At != 10 {
		t.Fatalf("trip at %v, want the stuck instant 10", trip.At)
	}
	if !errors.Is(trip, ErrWatchdog) {
		t.Fatal("trip does not unwrap to ErrWatchdog")
	}
}

func TestWatchdogQueueGrowthTrips(t *testing.T) {
	eng := NewEngine()
	NewWatchdog(WatchdogConfig{QueueFactor: 2, QueueFloor: 8}).Install(eng)

	// Each event schedules two successors at a later time: exponential
	// fan-out. The queue must blow past 2×8 = 16 pending well before the
	// livelock budget is a factor.
	cls := eng.Class("fanout")
	var fanout func(Time)
	fanout = func(now Time) {
		eng.Schedule(now+1, cls, fanout)
		eng.Schedule(now+2, cls, fanout)
	}
	eng.Schedule(1, cls, fanout)

	trip := catchTrip(t, func() { eng.Run(1000) })
	if trip == nil {
		t.Fatal("exponential fan-out never tripped the queue-growth bound")
	}
	if trip.Reason != "queue-growth" {
		t.Fatalf("trip reason %q, want queue-growth", trip.Reason)
	}
	if !strings.Contains(trip.Detail, "pending") {
		t.Fatalf("trip detail %q does not name the pending count", trip.Detail)
	}
}

func TestWatchdogHandlerStallTrips(t *testing.T) {
	eng := NewEngine()
	NewWatchdog(WatchdogConfig{MaxHandlerWall: time.Microsecond}).Install(eng)

	eng.Schedule(5, eng.Class("stall"), func(Time) {
		// Burn more than a microsecond of wall clock inside one handler.
		deadline := time.Now().Add(2 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
	})

	trip := catchTrip(t, func() { eng.RunAll() })
	if trip == nil {
		t.Fatal("stalled handler never tripped the watchdog")
	}
	if trip.Reason != "handler-stall" {
		t.Fatalf("trip reason %q, want handler-stall", trip.Reason)
	}
	if trip.Class != "stall" {
		t.Fatalf("trip class %q, want the stalling event's class", trip.Class)
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	eng := NewEngine()
	NewWatchdog(WatchdogConfig{EventBudget: 1000, QueueFactor: 2, QueueFloor: 64}).Install(eng)

	// A well-behaved chain: every event advances simulated time and the
	// queue stays shallow.
	cls := eng.Class("step")
	var step func(Time)
	n := 0
	step = func(now Time) {
		if n++; n < 500 {
			eng.Schedule(now+Nanosecond, cls, step)
		}
	}
	eng.Schedule(0, cls, step)
	if trip := catchTrip(t, func() { eng.RunAll() }); trip != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", trip)
	}
	if n != 500 {
		t.Fatalf("ran %d steps, want 500", n)
	}
}

func TestWatchdogComposesWithOtherHooks(t *testing.T) {
	eng := NewEngine()
	var seen int
	eng.AddHook(hookFunc(func(Class, Time, time.Duration) { seen++ }))
	NewWatchdog(WatchdogConfig{EventBudget: 50}).Install(eng)

	eng.Schedule(1, eng.Class("tick"), func(Time) {})
	eng.RunAll()
	if seen != 1 {
		t.Fatalf("earlier hook saw %d events after watchdog install, want 1", seen)
	}
}

// hookFunc adapts a func to the Hook interface for tests.
type hookFunc func(class Class, at Time, wall time.Duration)

func (f hookFunc) EventDone(class Class, at Time, wall time.Duration) { f(class, at, wall) }
