package sim

import "container/heap"

// Event is a callback scheduled to run at a point in simulated time. Event
// structs are pooled: once an event fires, a later At may reuse it.
type Event struct {
	At Time
	Fn func(now Time)

	seq  int    // tie-break so events at the same instant run in schedule order
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
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
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
	pool   eventPool
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn func(now Time)) {
	if at < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.pool.get(at, fn, e.nextID)
	e.nextID++
	heap.Push(&e.queue, ev)
}

// Step runs the next pending event, advancing the clock to its time. It
// reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	e.now = ev.At
	fn, at := ev.Fn, ev.At
	// Recycle before running: the callback's own At calls may then reuse
	// the struct.
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
