package sched

import (
	"sort"

	"iceclave/internal/sim"
)

// This file is the scheduler's virtual-time mode. The goroutine pool in
// sched.go meters admission in wall-clock time; Gate applies the same
// queue (band order, FIFO within a band, per-key and global caps,
// work-conserving skip) as discrete events on a sim.Engine, so queueing
// delay from admission lands on the simulated clock that the flash, CPU
// and memory models already share. core.RunMulti replays every tenant
// through one Gate; the Figure 17/18-style timing tables read the delay
// back out of core.Result.QueueDelay.
//
// Two grant modes exist. Per-release (the default) dispatches the moment
// capacity frees, the behaviour of firmware that reschedules on every
// completion interrupt. Batched mode (Quantum > 0) aligns every grant to
// a tick boundary and admits at most Batch tickets per tick, the model of
// firmware that amortizes its scheduling work over a periodic timer. It
// trades queueing delay (a freed slot waits for the next tick) for
// scheduling passes (Ticks counts them).
//
// Concurrency contract: unlike Scheduler, Gate follows the sim package's
// single-goroutine rule; it is part of a simulation, not a thread pool.

// GateConfig tunes the virtual-time gate. The zero value admits every
// arrival at its arrival instant.
type GateConfig struct {
	// Slots caps tickets granted at once across all keys (the 15 live
	// TEE IDs of §4.3, or a policy choice below it). Non-positive means
	// unlimited.
	Slots int
	// PerKey caps tickets granted at once per key. Non-positive means
	// unlimited.
	PerKey int
	// Quantum, when positive, switches to batched grants: admissions fire
	// only on tick boundaries of the virtual clock.
	Quantum sim.Duration
	// Batch caps grants per tick; non-positive means a tick admits
	// everything capacity allows. Ignored unless Quantum is set.
	Batch int
	// Floor, when positive, makes the tick load-sensitive: each armed
	// tick's period is max(Quantum/(1+queued), Floor), so the gate
	// schedules lazily when idle and approaches per-release latency as
	// the queue deepens. Ignored unless Quantum is set.
	Floor sim.Duration
}

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
	cfg GateConfig

	tickPending bool
	waited      sim.Duration
	maxQueued   int
	ticks       int64
}

// NewGate builds a gate over eng. It panics if eng is nil.
func NewGate(eng *sim.Engine, cfg GateConfig) *Gate {
	if eng == nil {
		panic("sched: NewGate needs an engine")
	}
	return &Gate{eng: eng, q: newQueue[*Ticket](cfg.Slots, cfg.PerKey), cfg: cfg}
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
// pass (or arms the tick). The queue high-water mark is taken after the
// pass, so arrivals the same instant admits never count as queued.
func (g *Gate) arrive(group []*Ticket, now sim.Time) {
	for _, t := range group {
		g.q.push(t.Key, t.Priority, t)
	}
	if g.cfg.Quantum > 0 {
		if g.q.anyAdmissible() {
			g.scheduleTick(g.nextTick(now))
		}
	} else {
		g.dispatch(now, 0)
	}
	g.maxQueued = max(g.maxQueued, g.q.waiting)
}

// Release retires a granted ticket at virtual time at. In per-release
// mode it grants whatever the freed capacity admits at once; in batched
// mode the next tick does.
func (g *Gate) Release(t *Ticket, at sim.Time) {
	if !t.running || t.done {
		panic("sched: release of a ticket that is not running")
	}
	t.running = false
	t.done = true
	g.q.done(t.Key)
	if g.cfg.Quantum <= 0 {
		g.dispatch(at, 0)
	} else if g.q.waiting > 0 {
		g.scheduleTick(g.nextTick(at))
	}
}

// dispatch grants queued tickets at time at until the queue admits no
// more or limit grants have fired (limit <= 0 means no limit), and
// returns the number granted.
func (g *Gate) dispatch(at sim.Time, limit int) int {
	n := 0
	for limit <= 0 || n < limit {
		t, ok := g.q.pop()
		if !ok {
			break
		}
		t.running = true
		t.Granted = at
		g.waited += at - t.Submitted
		g.eng.At(at, t.fn)
		n++
	}
	return n
}

// nextTick returns the first tick boundary at or after at. Under Floor
// the period is sampled when the tick is armed, so a queue that deepens
// after arming still waits out the armed tick: firmware reprograms its
// timer on the scheduling pass, not on every enqueue.
func (g *Gate) nextTick(at sim.Time) sim.Time {
	q := sim.Time(g.period())
	return (at + q - 1) / q * q
}

// period returns the tick period in effect now.
func (g *Gate) period() sim.Duration {
	if g.cfg.Floor > 0 {
		return max(g.cfg.Quantum/sim.Duration(1+g.q.waiting), g.cfg.Floor)
	}
	return g.cfg.Quantum
}

// scheduleTick arms the single pending grant tick at the given time.
func (g *Gate) scheduleTick(tick sim.Time) {
	if g.tickPending {
		return
	}
	g.tickPending = true
	g.eng.At(tick, func(now sim.Time) {
		g.tickPending = false
		g.ticks++
		// A tick stopped by Batch, not by capacity, arms the next one;
		// capacity-blocked tickets are re-armed by the Release that
		// unblocks them.
		n := g.dispatch(now, g.cfg.Batch)
		if g.cfg.Batch > 0 && n >= g.cfg.Batch && g.q.anyAdmissible() {
			g.scheduleTick(now + sim.Time(g.period()))
		}
	})
}

// Pending returns the queued (not yet granted) ticket count.
func (g *Gate) Pending() int { return g.q.waiting }

// Running returns the granted, unreleased ticket count.
func (g *Gate) Running() int { return g.q.running }

// Waited returns the total queueing delay across granted tickets.
func (g *Gate) Waited() sim.Duration { return g.waited }

// MaxQueued returns the high-water mark of the queue.
func (g *Gate) MaxQueued() int { return g.maxQueued }

// Ticks returns how many batched scheduling passes have run; always zero
// in per-release mode.
func (g *Gate) Ticks() int64 { return g.ticks }
