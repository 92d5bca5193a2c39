package sim

// Admission is a virtual-time admission gate: the discrete-event form of
// the sched package's admission control. Tickets are submitted with a
// tenant key and a priority band; a ticket is granted when the global slot
// cap and its key's per-key cap both have room. Grants are delivered as
// Engine events, so queueing delay from admission control lands on the
// same virtual clock as every downstream resource (CPU servers, flash
// dies, channel buses) — the backbone property the multi-tenant timing
// experiments depend on.
//
// Dispatch policy mirrors sched.Scheduler: highest band first, FIFO within
// a band, and work-conserving — a queued ticket whose key is at its cap is
// skipped rather than head-of-line blocking the band.
//
// Two grant policies exist. Per-release (the default) dispatches the
// moment capacity frees, the behaviour of firmware that reschedules on
// every completion interrupt. Batched-grant mode (Policy.Quantum > 0)
// instead aligns every grant to quantum tick boundaries and admits at
// most Policy.Batch queued tickets per tick — the model of controller
// firmware that amortizes its scheduling work over a periodic timer
// instead of taking a scheduling pass per completion. Batching trades
// queueing delay (a freed slot waits for the next tick) for scheduler
// invocations (Ticks counts them).
//
// Like Server, Admission is single-goroutine by the package contract; all
// concurrency it models is virtual.
type Admission struct {
	eng      *Engine
	bands    [][]*Ticket
	slots    int      // global concurrent-grant cap; <= 0 means unlimited
	perKey   int      // per-key concurrent-grant cap; <= 0 means unlimited
	quantum  Duration // > 0 switches to batched-grant mode
	batch    int      // max grants per quantum tick; <= 0 means unlimited
	adaptive func(queued int, base Duration) Duration

	inUse       int
	byKey       map[string]int
	tickPending bool

	waited    Duration
	maxQueued int
	queued    int
	ticks     int64
}

// Policy bundles the admission gate's capacity and grant-batching knobs.
// The zero value means unlimited capacity with per-release dispatch.
type Policy struct {
	// Slots is the global concurrent-grant cap; <= 0 means unlimited.
	Slots int
	// PerKey is the per-key concurrent-grant cap; <= 0 means unlimited.
	PerKey int
	// Quantum, when positive, enables batched-grant mode: grants fire
	// only at multiples of Quantum on the virtual clock.
	Quantum Duration
	// Batch caps grants per quantum tick; <= 0 means no per-tick cap
	// (the tick then admits everything capacity allows, still aligned to
	// the quantum). Ignored unless Quantum is set.
	Batch int
	// AdaptiveQuantum, when non-nil, scales the batched-grant tick with
	// load: each time a tick is armed, the gate calls it with the current
	// queue depth and the base Quantum and aligns the tick to the returned
	// period instead (non-positive returns fall back to Quantum). A hook
	// that shrinks the period as the queue deepens trades scheduling
	// passes for queueing delay only when there is a queue to drain.
	// Ignored unless Quantum is set.
	AdaptiveQuantum func(queued int, base Duration) Duration
}

// Ticket is one admission request. Submitted and Granted expose the
// queueing interval once the grant fires; Granted is meaningful only
// after the grant callback has run.
type Ticket struct {
	Key       string
	Band      int
	Submitted Time
	Granted   Time

	fn      func(granted Time)
	running bool
	done    bool
}

// Waited returns the ticket's queueing delay; zero until granted.
func (t *Ticket) Waited() Duration {
	if !t.running && !t.done {
		return 0
	}
	return t.Granted - t.Submitted
}

// NewAdmission builds a per-release-dispatch gate with the given number
// of priority bands (band bands-1 is the highest), a global slot cap, and
// a per-key cap. Non-positive caps mean unlimited. It panics if bands < 1
// or eng is nil.
func NewAdmission(eng *Engine, bands, slots, perKey int) *Admission {
	return NewAdmissionWithPolicy(eng, bands, Policy{Slots: slots, PerKey: perKey})
}

// NewAdmissionWithPolicy builds a gate with the full policy, including
// the batched-grant mode. It panics if bands < 1 or eng is nil.
func NewAdmissionWithPolicy(eng *Engine, bands int, pol Policy) *Admission {
	if eng == nil {
		panic("sim: NewAdmission needs an engine")
	}
	if bands < 1 {
		panic("sim: NewAdmission needs at least one band")
	}
	return &Admission{
		eng:      eng,
		bands:    make([][]*Ticket, bands),
		slots:    pol.Slots,
		perKey:   pol.PerKey,
		quantum:  pol.Quantum,
		batch:    pol.Batch,
		adaptive: pol.AdaptiveQuantum,
		byKey:    make(map[string]int),
	}
}

// admissible reports whether a ticket for key could start right now.
func (a *Admission) admissible(key string) bool {
	if a.slots > 0 && a.inUse >= a.slots {
		return false
	}
	if a.perKey > 0 && a.byKey[key] >= a.perKey {
		return false
	}
	return true
}

// grant marks t running at time at and schedules its callback.
func (a *Admission) grant(t *Ticket, at Time) {
	t.running = true
	t.Granted = at
	a.inUse++
	a.byKey[t.Key]++
	a.waited += at - t.Submitted
	a.eng.At(at, t.fn)
}

// Submit enqueues a request at virtual time at; fn runs (as an engine
// event) when the ticket is granted — immediately at `at` if the caps have
// room. It panics on an out-of-range band, matching the Engine's posture
// that scheduling bugs should not pass silently.
func (a *Admission) Submit(at Time, key string, band int, fn func(granted Time)) *Ticket {
	if band < 0 || band >= len(a.bands) {
		panic("sim: admission band out of range")
	}
	t := &Ticket{Key: key, Band: band, Submitted: at, fn: fn}
	if a.quantum <= 0 && a.admissible(key) {
		a.grant(t, at)
		return t
	}
	a.bands[band] = append(a.bands[band], t)
	a.queued++
	if a.queued > a.maxQueued {
		a.maxQueued = a.queued
	}
	if a.quantum > 0 && a.admissible(key) {
		// Batched mode: even an immediately admissible ticket waits for
		// the scheduler tick (which may be this very instant if at lies
		// on a quantum boundary).
		a.scheduleTick(a.nextTick(at))
	}
	return t
}

// tickQuantum returns the grant-tick period in effect right now: the
// fixed Quantum, or the adaptive hook's load-scaled period.
func (a *Admission) tickQuantum() Duration {
	q := a.quantum
	if a.adaptive != nil {
		if aq := a.adaptive(a.queued, q); aq > 0 {
			q = aq
		}
	}
	return q
}

// nextTick returns the first tick boundary at or after at. Under the
// adaptive hook the boundary grid itself is load-dependent: the period is
// sampled when the tick is armed, so a queue that deepens after arming
// still waits out the already-armed tick — firmware reprograms its timer
// on the scheduling pass, not on every enqueue.
func (a *Admission) nextTick(at Time) Time {
	q := Time(a.tickQuantum())
	return (at + q - 1) / q * q
}

// scheduleTick arms the (single) pending grant tick at the given time.
func (a *Admission) scheduleTick(tick Time) {
	if a.tickPending {
		return
	}
	a.tickPending = true
	a.eng.At(tick, func(now Time) {
		a.tickPending = false
		a.grantTick(now)
	})
}

// grantTick is one batched scheduling pass: admit up to batch queued
// tickets at the tick instant. If the per-tick batch cap — not
// capacity — is what stopped the pass, the next tick is armed; otherwise
// the queue drains further only when a Release frees capacity.
func (a *Admission) grantTick(now Time) {
	a.ticks++
	n := a.dispatchUpTo(now, a.batch)
	if a.batch > 0 && n >= a.batch && a.anyAdmissible() {
		a.scheduleTick(now + Time(a.tickQuantum()))
	}
}

// anyAdmissible reports whether some queued ticket could be granted right
// now — the guard that keeps a batch-capped tick from arming a follow-up
// tick no queued ticket could use (capacity-blocked tickets are re-armed
// by the Release that unblocks them instead).
func (a *Admission) anyAdmissible() bool {
	for _, q := range a.bands {
		for _, t := range q {
			if a.admissible(t.Key) {
				return true
			}
		}
	}
	return false
}

// Release retires a granted ticket at virtual time at and grants every
// queued ticket that the freed capacity now admits.
func (a *Admission) Release(t *Ticket, at Time) {
	if !t.running || t.done {
		panic("sim: release of a ticket that is not running")
	}
	t.running = false
	t.done = true
	a.inUse--
	a.byKey[t.Key]--
	if a.byKey[t.Key] == 0 {
		delete(a.byKey, t.Key)
	}
	if a.quantum > 0 {
		// Batched mode: the freed capacity is picked up at the next
		// scheduler tick, not here.
		if a.queued > 0 {
			a.scheduleTick(a.nextTick(at))
		}
		return
	}
	a.dispatch(at)
}

// dispatch grants queued tickets while capacity allows.
func (a *Admission) dispatch(at Time) { a.dispatchUpTo(at, 0) }

// dispatchUpTo is the one dispatch loop both grant policies share: grant
// queued tickets — highest band first, FIFO within a band, skipping (not
// blocking on) keys at their cap — until capacity runs out or max grants
// have fired (max <= 0 means no grant limit). It returns the number of
// grants made.
func (a *Admission) dispatchUpTo(at Time, max int) int {
	n := 0
	for b := len(a.bands) - 1; b >= 0; b-- {
		q := a.bands[b]
		for i := 0; i < len(q); {
			if max > 0 && n >= max {
				break
			}
			if a.slots > 0 && a.inUse >= a.slots {
				break
			}
			t := q[i]
			if !a.admissible(t.Key) {
				i++ // work-conserving: skip the capped key, try later tickets
				continue
			}
			// Remove in place: shift the tail down and clear the vacated
			// slot, so a grant never reallocates a deep queue.
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			q = q[:len(q)-1]
			a.queued--
			a.grant(t, at)
			n++
		}
		a.bands[b] = q
	}
	return n
}

// Pending returns the number of queued (not yet granted) tickets.
func (a *Admission) Pending() int { return a.queued }

// Running returns the number of granted, unreleased tickets.
func (a *Admission) Running() int { return a.inUse }

// Waited returns the total queueing delay across granted tickets.
func (a *Admission) Waited() Duration { return a.waited }

// MaxQueued returns the high-water mark of the admission queue.
func (a *Admission) MaxQueued() int { return a.maxQueued }

// Ticks returns how many batched scheduling passes have run; always zero
// in per-release mode, where every Release is its own dispatch.
func (a *Admission) Ticks() int64 { return a.ticks }
