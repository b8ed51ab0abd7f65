package sim

import (
	"sort"
	"time"
)

// Class is an interned handler-class handle. Components intern their
// classes once at setup time (eng.Class("hbm.access")) and pass the
// resulting integer handle on every Schedule call, so the scheduling hot
// path never hashes or compares strings. Handles are per-engine: a Class
// obtained from one Engine is meaningless on another.
//
// The zero value is ClassDefault, the anonymous "event" class.
type Class int32

// ClassDefault is the pre-interned class of events scheduled without a
// meaningful attribution, named DefaultClass ("event"). It is valid on
// every Engine.
const ClassDefault Class = 0

// DefaultClass is the name of ClassDefault. Components that want
// per-class profiling intern their own classes with Engine.Class.
const DefaultClass = "event"

// classInfo is one interned class: its name plus the engine-side
// aggregate execution counters fed by profiling (see EnableProfiling).
type classInfo struct {
	name   string
	fired  uint64
	wallNS int64
}

// Class interns name and returns its handle, allocating a new ID on
// first use. Interning the same name twice returns the same handle.
// Intended for setup time, not the per-event hot path.
func (e *Engine) Class(name string) Class {
	if c, ok := e.classIdx[name]; ok {
		return c
	}
	c := Class(len(e.classes))
	e.classes = append(e.classes, classInfo{name: name})
	e.classIdx[name] = c
	return c
}

// ClassName resolves a handle back to its interned name. Unknown handles
// resolve to "?" rather than panicking, so diagnostics paths can always
// render something.
func (e *Engine) ClassName(c Class) string {
	if c < 0 || int(c) >= len(e.classes) {
		return "?"
	}
	return e.classes[c].name
}

// Hook observes engine execution. An observer installed with AddHook
// receives one callback per fired event with the event's interned
// class handle, its simulated firing time, and the wall-clock cost of its
// handler. The engine measures handler wall time only while a hook is
// installed or profiling is enabled, so an unobserved run pays nothing.
// Resolve handles to names with Engine.ClassName.
type Hook interface {
	EventDone(class Class, at Time, wall time.Duration)
}

// AddHook chains h behind any observer already installed: every hook
// receives every EventDone callback, in installation order. This is the
// seam that lets several observers share one engine without clobbering
// each other.
func (e *Engine) AddHook(h Hook) {
	if h != nil {
		e.hooks = append(e.hooks, h)
	}
}

// ClassProfile is one class's aggregate execution counters, snapshotted
// by ProfileSnapshot.
type ClassProfile struct {
	// Class is the interned handle (valid on the snapshotted engine).
	Class Class
	// Name is the interned class name.
	Name string
	// Fired counts events executed under this class — deterministic for
	// a given seed and fault plan.
	Fired uint64
	// WallNS is the cumulative wall-clock handler cost in nanoseconds.
	// It is inherently nondeterministic and must never reach a
	// byte-stable dump.
	WallNS int64
}

// EnableProfiling turns on the engine's per-class aggregate counters:
// every fired event increments its class's fired count and accumulates
// its handler's wall-clock cost. Unlike a per-event Hook, profiling is a
// pair of in-place counter bumps with no callback — and while disabled
// (the default) the dispatch loop takes no timestamps and touches no
// counters, so unprofiled runs pay nothing.
func (e *Engine) EnableProfiling() { e.profiling = true }

// ProfileSnapshot returns the aggregate counters of every class that has
// fired at least one event, sorted by class name so output built from it
// is stable regardless of interning order.
func (e *Engine) ProfileSnapshot() []ClassProfile {
	var out []ClassProfile
	for i := range e.classes {
		ci := &e.classes[i]
		if ci.fired == 0 {
			continue
		}
		out = append(out, ClassProfile{Class: Class(i), Name: ci.name, Fired: ci.fired, WallNS: ci.wallNS})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
