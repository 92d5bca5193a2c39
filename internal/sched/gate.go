package sched

import (
	"sort"

	"iceclave/internal/sim"
)

// This file is the scheduler's virtual-time mode. The goroutine pool in
// sched.go meters admission in wall-clock time; Gate applies the same
// queue (band order, FIFO within a band, a global cap) as discrete events
// on a sim.Engine, so queueing delay from admission lands on the simulated
// clock that the flash, CPU and memory models already share.
// core.RunMulti replays every tenant through one Gate; the Figure
// 17/18-style timing tables read the delay back out of
// core.Result.QueueDelay.
//
// The gate grants the moment capacity frees: an arrival finding a free
// slot is granted at its arrival instant, and a Release grants whatever
// the freed slot admits at the release instant, the behaviour of firmware
// that reschedules on every completion interrupt.
//
// Concurrency contract: unlike Scheduler, Gate follows the sim package's
// single-goroutine rule; it is part of a simulation, not a thread pool.

// Ticket is one admission request. Granted is meaningful only after the
// grant callback has run.
type Ticket struct {
	Key       string
	Priority  Priority
	Submitted sim.Time
	Granted   sim.Time

	fn      func(granted sim.Time)
	running bool
	done    bool
}

// Waited returns the ticket's queueing delay; zero until granted.
func (t *Ticket) Waited() sim.Duration {
	if !t.running && !t.done {
		return 0
	}
	return t.Granted - t.Submitted
}

// Arrival is one entry of a fixed open-loop submission schedule: the
// virtual instant the request reaches the gate, its key and priority, and
// the callback to run at its grant.
type Arrival struct {
	At       sim.Time
	Key      string
	Priority Priority
	Fn       func(granted sim.Time)
}

// Gate is the virtual-time admission gate.
type Gate struct {
	eng *sim.Engine
	q   queue[*Ticket]

	waited    sim.Duration
	maxQueued int
}

// NewGate builds a gate over eng that grants at most slots tickets at once
// (the 15 live TEE IDs of §4.3, or a policy choice below it); a
// non-positive slots means unlimited. It panics if eng is nil.
func NewGate(eng *sim.Engine, slots int) *Gate {
	if eng == nil {
		panic("sched: NewGate needs an engine")
	}
	return &Gate{eng: eng, q: newQueue[*Ticket](slots, 0)}
}

// Playback posts a fixed arrival schedule onto the engine and returns the
// tickets in schedule order, granted once the engine runs. Each ticket's
// wait counts from its scheduled arrival, so pre-arrival idle never
// appears as queueing delay. Arrivals sharing one instant enter the gate
// together and are granted by one pass, so they contend by priority, not
// by schedule position; arrivals need not be sorted. It panics on an
// out-of-range priority: only a caller bug can produce one.
func (g *Gate) Playback(arrivals []Arrival) []*Ticket {
	tickets := make([]*Ticket, len(arrivals))
	order := make([]int, len(arrivals))
	for i, ar := range arrivals {
		if ar.Priority < PriorityLow || ar.Priority >= numPriorities {
			panic("sched: arrival priority out of range")
		}
		tickets[i] = &Ticket{Key: ar.Key, Priority: ar.Priority, Submitted: ar.At, fn: ar.Fn}
		order[i] = i
	}
	// Stable on arrival time only: same-instant arrivals keep schedule
	// order within their bands.
	sort.SliceStable(order, func(x, y int) bool {
		return arrivals[order[x]].At < arrivals[order[y]].At
	})
	for start := 0; start < len(order); {
		at := arrivals[order[start]].At
		end := start
		for end < len(order) && arrivals[order[end]].At == at {
			end++
		}
		group := make([]*Ticket, end-start)
		for k, oi := range order[start:end] {
			group[k] = tickets[oi]
		}
		g.eng.At(at, func(now sim.Time) { g.arrive(group, now) })
		start = end
	}
	return tickets
}

// arrive queues one instant's arrivals together, then runs a single grant
// pass. The queue high-water mark is taken after the pass, so arrivals the
// same instant admits never count as queued.
func (g *Gate) arrive(group []*Ticket, now sim.Time) {
	for _, t := range group {
		g.q.push(t.Key, t.Priority, t)
	}
	g.dispatch(now)
	g.maxQueued = max(g.maxQueued, g.q.waiting)
}

// Release retires a granted ticket at virtual time at and grants whatever
// the freed capacity admits at once.
func (g *Gate) Release(t *Ticket, at sim.Time) {
	if !t.running || t.done {
		panic("sched: release of a ticket that is not running")
	}
	t.running = false
	t.done = true
	g.q.done(t.Key)
	g.dispatch(at)
}

// dispatch grants queued tickets at time at until the queue admits no
// more.
func (g *Gate) dispatch(at sim.Time) {
	for {
		t, ok := g.q.pop()
		if !ok {
			return
		}
		t.running = true
		t.Granted = at
		g.waited += at - t.Submitted
		g.eng.At(at, t.fn)
	}
}

// Pending returns the queued (not yet granted) ticket count.
func (g *Gate) Pending() int { return g.q.waiting }

// Running returns the granted, unreleased ticket count.
func (g *Gate) Running() int { return g.q.running }

// Waited returns the total queueing delay across granted tickets.
func (g *Gate) Waited() sim.Duration { return g.waited }

// MaxQueued returns the high-water mark of the queue.
func (g *Gate) MaxQueued() int { return g.maxQueued }
