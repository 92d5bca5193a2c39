package sim

import "container/heap"

// Event is a callback scheduled to run at a point in simulated time.
//
// Event structs are pooled: once an event has fired or been cancelled, its
// handle is dead and the struct may be reused by a later At. Holding a
// dead handle is fine; calling Cancel through one is not (it may cancel an
// unrelated recycled event). Every current user either drops the handle or
// cancels an event it knows is still pending, which is the contract.
type Event struct {
	At Time
	Fn func(now Time)

	seq  int    // tie-break so events at the same instant run in schedule order
	idx  int    // heap index
	next *Event // free-list link while pooled
}

// eventHeap orders events by time, then by scheduling order.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// eventPool is a per-engine free list of Event structs. A replay schedules
// one event per step on the hottest suite path; recycling fired events
// makes the steady state allocation-free (each step's At reuses the struct
// the previous step's event just released).
type eventPool struct {
	free *Event
}

func (p *eventPool) get(at Time, fn func(now Time), seq int) *Event {
	ev := p.free
	if ev == nil {
		ev = &Event{}
	} else {
		p.free = ev.next
	}
	ev.At = at
	ev.Fn = fn
	ev.seq = seq
	ev.idx = -1
	ev.next = nil
	return ev
}

func (p *eventPool) put(ev *Event) {
	ev.Fn = nil // drop the closure so pooled events pin no captures
	ev.next = p.free
	p.free = ev
}

// Engine is a minimal discrete-event simulation loop. The zero value is
// ready to use and starts at time zero.
type Engine struct {
	now    Time
	queue  eventHeap
	nextID int
	ran    int64
	pool   eventPool
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run so far.
func (e *Engine) Processed() int64 { return e.ran }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it would silently reorder causality. The returned handle is
// valid until the event fires or is cancelled (see Event).
func (e *Engine) At(at Time, fn func(now Time)) *Event {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.pool.get(at, fn, e.nextID)
	e.nextID++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run delay nanoseconds from now.
func (e *Engine) After(delay Duration, fn func(now Time)) *Event {
	return e.At(e.now+delay, fn)
}

// Cancel removes a scheduled event. It is a no-op if the event already ran.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.idx < 0 || ev.idx >= len(e.queue) || e.queue[ev.idx] != ev {
		return
	}
	heap.Remove(&e.queue, ev.idx)
	ev.idx = -1
	e.pool.put(ev)
}

// Step runs the next pending event, advancing the clock to its time. It
// reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	ev.idx = -1
	e.now = ev.At
	e.ran++
	fn, at := ev.Fn, ev.At
	// Recycle before running: the handle is dead once the event fires, and
	// the callback's own At calls may then reuse the struct.
	e.pool.put(ev)
	fn(at)
	return true
}

// Run processes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil processes events with At <= deadline, then sets the clock to the
// deadline (if it has not passed it already) and returns it.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 && e.queue[0].At <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Reset returns the engine to time zero with an empty queue in O(1):
// pending events are dropped (not recycled — they go to the garbage
// collector with their closures) and the free list and queue capacity are
// kept for reuse. Part of the repo-wide reset contract.
func (e *Engine) Reset() {
	e.now = 0
	e.nextID = 0
	e.ran = 0
	e.queue = e.queue[:0]
}
