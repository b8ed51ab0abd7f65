package sim

// The event queue is a binary min-heap of arena slot indices ordered by
// (at, seq), where seq is the global schedule counter: events fire in
// strictly ascending (at, seq) order, FIFO among equal timestamps. Forever
// is the largest Time, so Forever sentinels sort after every finite event;
// nextLive stops at them, which is how they never fire.
//
// Events live by value in a slot arena (Engine.events) threaded with a
// free list, so steady-state scheduling recycles slots instead of
// allocating. An EventID is (slot index, generation); the generation bumps
// every time a slot is reclaimed, which makes stale IDs — cancels after
// the event fired, double cancels — detectably dead. Each queued slot
// records its heap position, so Cancel takes the event out at once and the
// heap holds exactly the live queued events.

// event is one scheduled callback, stored by value in the arena. pos is
// the slot's heap index while it is queued and -1 while it is free.
type event struct {
	at    Time
	seq   uint64
	fn    Handler
	class Class
	gen   uint32
	pos   int32
}

// before reports whether a fires before b.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// alloc takes a slot off the free list, growing the arena only when the
// list is empty (the arena never shrinks; its high-water mark is the
// steady-state footprint).
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.events = append(e.events, event{pos: -1})
	return int32(len(e.events) - 1)
}

// reclaim returns a slot to the free list, dropping the handler reference
// (so the engine never pins a closure past its event) and bumping the
// generation so outstanding EventIDs for this slot go stale.
func (e *Engine) reclaim(idx int32) {
	ev := &e.events[idx]
	ev.fn = nil
	ev.pos = -1
	ev.gen++
	e.free = append(e.free, idx)
}

// push queues an allocated slot.
func (e *Engine) push(idx int32) {
	e.heap = append(e.heap, idx)
	e.up(len(e.heap)-1, idx)
}

// remove takes the slot at heap position i out of the heap, moving the
// last slot into the hole and sifting it to its place.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && before(&e.events[last], &e.events[e.heap[(i-1)/2]]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// up places idx at heap position i or above, shifting later parents down.
func (e *Engine) up(i int, idx int32) {
	h, ev := e.heap, &e.events[idx]
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, &e.events[h[p]]) {
			break
		}
		h[i] = h[p]
		e.events[h[i]].pos = int32(i)
		i = p
	}
	h[i] = idx
	ev.pos = int32(i)
}

// down places idx at heap position i or below, shifting earlier children up.
func (e *Engine) down(i int, idx int32) {
	h, ev := e.heap, &e.events[idx]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && before(&e.events[h[r]], &e.events[h[c]]) {
			c = r
		}
		if !before(&e.events[h[c]], ev) {
			break
		}
		h[i] = h[c]
		e.events[h[i]].pos = int32(i)
		i = c
	}
	h[i] = idx
	ev.pos = int32(i)
}

// nextLive returns the slot of the earliest queued finite event. It
// reports false when no finite events remain: Forever sentinels sort
// last, so a Forever head means only sentinels are left.
func (e *Engine) nextLive() (int32, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	idx := e.heap[0]
	return idx, e.events[idx].at != Forever
}
