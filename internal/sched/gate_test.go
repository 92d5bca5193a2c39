package sched

import (
	"testing"

	"iceclave/internal/sim"
)

// submit plays one arrival back through g and returns its ticket. Each
// call is its own arrival event, so arrivals made one call at a time are
// queued (or granted) in call order, even at one instant.
func submit(g *Gate, at sim.Time, key string, prio Priority, fn func(sim.Time)) *Ticket {
	return g.Playback([]Arrival{{At: at, Key: key, Priority: prio, Fn: fn}})[0]
}

// TestAdmissionImmediateGrant pins the uncontended path: with free
// capacity, the grant fires at the arrival instant with zero wait.
func TestAdmissionImmediateGrant(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 2)
	var granted sim.Time = -1
	tk := submit(g, 10, "a", PriorityNormal, func(now sim.Time) { granted = now })
	eng.Run()
	if granted != 10 {
		t.Fatalf("granted at %v, want 10", granted)
	}
	if tk.Waited() != 0 {
		t.Fatalf("waited %v, want 0", tk.Waited())
	}
	if g.Running() != 1 || g.Pending() != 0 {
		t.Fatalf("running=%d pending=%d", g.Running(), g.Pending())
	}
}

// TestVirtualAdmissionUncapped pins the zero-config behavior replays rely
// on: no caps means every arrival is granted at its arrival instant.
func TestVirtualAdmissionUncapped(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 0)
	for i := 0; i < 64; i++ {
		submit(g, 0, "t", PriorityNormal, func(now sim.Time) {
			if now != 0 {
				t.Errorf("uncapped grant at %v, want 0", now)
			}
		})
	}
	eng.Run()
	if g.Pending() != 0 || g.Running() != 64 {
		t.Fatalf("pending=%d running=%d, want 0/64", g.Pending(), g.Running())
	}
}

// TestAdmissionGlobalCapQueues pins the backbone property: the second
// ticket's grant time equals the first ticket's release time, and the
// interval is recorded as queueing delay.
func TestAdmissionGlobalCapQueues(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	var t1, t2 sim.Time = -1, -1
	tk1 := submit(g, 0, "a", PriorityLow, func(now sim.Time) { t1 = now })
	tk2 := submit(g, 0, "b", PriorityLow, func(now sim.Time) { t2 = now })
	eng.Run()
	if t1 != 0 || t2 != -1 {
		t.Fatalf("before release: t1=%v t2=%v", t1, t2)
	}
	g.Release(tk1, 500)
	eng.Run()
	if t2 != 500 {
		t.Fatalf("queued grant at %v, want the release time 500", t2)
	}
	if tk2.Waited() != 500 {
		t.Fatalf("waited %v, want 500", tk2.Waited())
	}
	if g.Waited() != 500 {
		t.Fatalf("aggregate wait %v, want 500", g.Waited())
	}
}

// TestAdmissionBandPriority pins dispatch order on release: the
// highest-band queued ticket wins regardless of arrival order.
func TestAdmissionBandPriority(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	hold := submit(g, 0, "hold", PriorityHigh, func(sim.Time) {})
	var order []string
	note := func(key string, prio Priority) *Ticket {
		return submit(g, 0, key, prio, func(sim.Time) { order = append(order, key) })
	}
	note("low", PriorityLow)
	high := note("high", PriorityHigh)
	mid := note("mid", PriorityNormal)
	eng.Run()

	g.Release(hold, 100)
	eng.Run()
	g.Release(high, 200)
	eng.Run()
	g.Release(mid, 300)
	eng.Run()
	if got := len(order); got != 3 {
		t.Fatalf("granted %d, want 3", got)
	}
	for i, want := range []string{"high", "mid", "low"} {
		if order[i] != want {
			t.Fatalf("grant order %v, want high,mid,low", order)
		}
	}
}

// TestVirtualAdmissionMirrorsSchedulerPolicy drives the gate through the
// admission scenario the goroutine pool implements — global cap 2,
// priority bands, FIFO within a band — and checks the grant order and the
// virtual queueing delays. The pool's per-key cap, which the gate does not
// set, is pinned on the queue by TestQueueCappedKeyYieldsToOtherKey.
func TestVirtualAdmissionMirrorsSchedulerPolicy(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 2)

	type grant struct {
		name string
		at   sim.Time
	}
	var grants []grant
	note := func(key string, prio Priority) *Ticket {
		return submit(g, 0, key, prio, func(now sim.Time) {
			grants = append(grants, grant{key + "/" + prio.String(), now})
		})
	}

	tA := note("a", PriorityNormal)
	tB := note("b", PriorityNormal)
	note("a", PriorityHigh)
	note("c", PriorityLow)
	note("d", PriorityHigh)
	eng.Run()

	// Two slots: a and b run; the rest queue.
	if g.Running() != 2 || g.Pending() != 3 {
		t.Fatalf("running=%d pending=%d, want 2/3", g.Running(), g.Pending())
	}

	// b finishes at t=1000: the high band goes first, and within it the
	// earlier arrival, a's second job.
	g.Release(tB, 1000)
	eng.Run()
	if got := grants[len(grants)-1]; got.name != "a/high" || got.at != 1000 {
		t.Fatalf("after b: granted %+v, want a/high at 1000", got)
	}

	// a finishes at t=3000: d's high-band job beats c's low.
	g.Release(tA, 3000)
	eng.Run()
	if got := grants[len(grants)-1]; got.name != "d/high" || got.at != 3000 {
		t.Fatalf("after a: granted %+v, want d/high at 3000", got)
	}

	// Queueing delay accumulated on the virtual clock: a/high waited
	// 1000, d waited 3000.
	if g.Waited() != 4000 {
		t.Fatalf("aggregate wait %v, want 4000", g.Waited())
	}
}

// TestAdmissionFIFOWithinBand pins arrival order within one band.
func TestAdmissionFIFOWithinBand(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	var order []string
	hold := submit(g, 0, "hold", PriorityLow, func(sim.Time) {})
	tks := make([]*Ticket, 3)
	for i, key := range []string{"x", "y", "z"} {
		tks[i] = submit(g, sim.Time(i), key, PriorityLow, func(sim.Time) { order = append(order, key) })
	}
	eng.Run()
	g.Release(hold, 10)
	eng.Run()
	g.Release(tks[0], 20)
	eng.Run()
	g.Release(tks[1], 30)
	eng.Run()
	if len(order) != 3 || order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("grant order %v, want x,y,z", order)
	}
	if g.MaxQueued() != 3 {
		t.Fatalf("max queued %d, want 3", g.MaxQueued())
	}
}

// TestAdmissionDequeueAllocs pins the in-place dequeue through the gate:
// granting the next ticket out of a 1000-deep queue allocates nothing and
// keeps FIFO order — Release panics unless tickets[next] is the running
// one.
func TestAdmissionDequeueAllocs(t *testing.T) {
	const depth = 1000
	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	fn := func(sim.Time) {}
	arrivals := make([]Arrival, depth)
	for i := range arrivals {
		arrivals[i] = Arrival{Key: "k", Priority: PriorityLow, Fn: fn}
	}
	tickets := g.Playback(arrivals)
	eng.Run() // fire the first grant, warming the event pool
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		g.Release(tickets[next], eng.Now())
		next++
		eng.Run()
	})
	if allocs > 0 {
		t.Errorf("a grant out of a %d-deep queue allocates %.1f objects, want 0", depth, allocs)
	}
	if !tickets[next].running || g.Pending() != depth-1-next {
		t.Errorf("after %d grants: ticket %d running=%v, pending %d, want true and %d",
			next, next, tickets[next].running, g.Pending(), depth-1-next)
	}
}

// TestPlaybackGrantsInBandOrderAtEqualArrival pins the simultaneous-arrival
// contract: arrivals sharing one virtual instant enter the gate as a
// group, so under a one-slot cap they are granted in band order — high,
// normal, low — regardless of schedule position (the low-band arrival is
// listed first here).
func TestPlaybackGrantsInBandOrderAtEqualArrival(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	const service = sim.Duration(100)
	var order []int
	var tks []*Ticket
	mk := func(i int) func(sim.Time) {
		return func(gr sim.Time) {
			order = append(order, i)
			eng.At(gr+service, func(now sim.Time) { g.Release(tks[i], now) })
		}
	}
	tks = g.Playback([]Arrival{
		{At: 0, Key: "low", Priority: PriorityLow, Fn: mk(0)},
		{At: 0, Key: "normal", Priority: PriorityNormal, Fn: mk(1)},
		{At: 0, Key: "high", Priority: PriorityHigh, Fn: mk(2)},
	})
	eng.Run()
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("grant order = %v, want [2 1 0] (high, normal, low)", order)
	}
	// Grants chain at service boundaries: high at 0, normal at 100, low at 200.
	if tks[2].Granted != 0 || tks[1].Granted != 100 || tks[0].Granted != 200 {
		t.Fatalf("grant times = high %v, normal %v, low %v; want 0, 100, 200",
			tks[2].Granted, tks[1].Granted, tks[0].Granted)
	}
}

// TestPlaybackWaitExcludesPreArrivalIdle pins the open-loop queueing
// definition: a late arrival finding free capacity is granted at its own
// arrival instant with zero wait — the idle gate time before it arrived is
// not queueing delay.
func TestPlaybackWaitExcludesPreArrivalIdle(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 2)
	var granted sim.Time = -1
	tks := g.Playback([]Arrival{
		{At: 5 * sim.Millisecond, Key: "late", Priority: PriorityLow, Fn: func(gr sim.Time) { granted = gr }},
	})
	eng.Run()
	if granted != 5*sim.Millisecond {
		t.Fatalf("granted at %v, want the 5ms arrival instant", granted)
	}
	if w := tks[0].Waited(); w != 0 {
		t.Fatalf("ticket waited %v, want 0 — pre-arrival idle counted as queueing", w)
	}
	if w := g.Waited(); w != 0 {
		t.Fatalf("gate accumulated %v wait, want 0", w)
	}
}

// TestVirtualPlaybackSchedulesAtArrival pins that playback preserves
// scheduled arrival instants and keys through to the tickets.
func TestVirtualPlaybackSchedulesAtArrival(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 0)
	var granted sim.Time = -1
	tks := g.Playback([]Arrival{
		{At: 7 * sim.Millisecond, Key: "t0", Priority: PriorityLow,
			Fn: func(gr sim.Time) { granted = gr }},
	})
	eng.Run()
	if granted != 7*sim.Millisecond {
		t.Fatalf("granted at %v, want the 7ms arrival", granted)
	}
	if tks[0].Key != "t0" || tks[0].Submitted != 7*sim.Millisecond || tks[0].Waited() != 0 {
		t.Fatalf("ticket = %+v, want key t0 submitted at 7ms with zero wait", tks[0])
	}
}

// TestPlaybackQueuedWaitCountsFromArrival pins the other half of the same
// definition: a blocked arrival's wait runs from its scheduled arrival to
// its grant, not from time zero.
func TestPlaybackQueuedWaitCountsFromArrival(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	var tks []*Ticket
	tks = g.Playback([]Arrival{
		{At: 0, Key: "first", Priority: PriorityNormal, Fn: func(gr sim.Time) {
			eng.At(gr+10*sim.Millisecond, func(now sim.Time) { g.Release(tks[0], now) })
		}},
		{At: 4 * sim.Millisecond, Key: "second", Priority: PriorityNormal, Fn: func(sim.Time) {}},
	})
	eng.Run()
	if tks[1].Granted != 10*sim.Millisecond {
		t.Fatalf("second granted at %v, want the 10ms release", tks[1].Granted)
	}
	if w := tks[1].Waited(); w != 6*sim.Millisecond {
		t.Fatalf("second waited %v, want 6ms (10ms grant - 4ms arrival)", w)
	}
	if w := g.Waited(); w != 6*sim.Millisecond {
		t.Fatalf("gate total wait %v, want 6ms", w)
	}
}

// TestPlaybackUnsortedArrivalsAndTicketOrder pins that the schedule need
// not be sorted: events are posted per instant, every arrival fires at its
// own time, and the returned tickets stay in schedule order.
func TestPlaybackUnsortedArrivalsAndTicketOrder(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 0)
	var grants []sim.Time
	tks := g.Playback([]Arrival{
		{At: 20, Key: "later", Priority: PriorityNormal, Fn: func(gr sim.Time) { grants = append(grants, gr) }},
		{At: 0, Key: "earlier", Priority: PriorityNormal, Fn: func(gr sim.Time) { grants = append(grants, gr) }},
	})
	eng.Run()
	if len(grants) != 2 || grants[0] != 0 || grants[1] != 20 {
		t.Fatalf("grants fired at %v, want [0 20]", grants)
	}
	if tks[0].Key != "later" || tks[1].Key != "earlier" {
		t.Fatalf("tickets reordered: %q, %q", tks[0].Key, tks[1].Key)
	}
	if tks[0].Submitted != 20 || tks[1].Submitted != 0 {
		t.Fatalf("submitted times = %v, %v; want 20, 0", tks[0].Submitted, tks[1].Submitted)
	}
}

// TestPlaybackRejectsBadBand pins the same must-not-pass-silently posture
// Scheduler.Submit has: an out-of-range band is a scheduling bug, not
// data.
func TestPlaybackRejectsBadBand(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Playback accepted an out-of-range band")
		}
	}()
	g.Playback([]Arrival{{At: 0, Key: "x", Priority: numPriorities, Fn: func(sim.Time) {}}})
}

// TestVirtualAdmissionOutOfRangePriority pins that a priority outside the
// three bands, on either side, is refused before it reaches the queue
// rather than clamped to the normal band and granted.
func TestVirtualAdmissionOutOfRangePriority(t *testing.T) {
	for _, p := range []Priority{Priority(-3), Priority(99)} {
		fired := false
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Playback accepted priority %d", int(p))
				}
			}()
			eng := &sim.Engine{}
			NewGate(eng, 1).Playback([]Arrival{{Key: "t", Priority: p, Fn: func(sim.Time) { fired = true }}})
			eng.Run()
		}()
		if fired {
			t.Fatalf("priority %d was granted", int(p))
		}
	}
}

// TestPlaybackMaxQueuedExcludesImmediateGrants pins the high-water mark
// semantics: arrivals admitted in their own arrival pass never count as
// queued, while genuinely blocked arrivals do.
func TestPlaybackMaxQueuedExcludesImmediateGrants(t *testing.T) {
	eng := &sim.Engine{}
	g := NewGate(eng, 2)
	var tks []*Ticket
	release := func(i int) func(sim.Time) {
		return func(gr sim.Time) { eng.At(gr+100, func(now sim.Time) { g.Release(tks[i], now) }) }
	}
	tks = g.Playback([]Arrival{
		{At: 0, Key: "a", Priority: PriorityNormal, Fn: release(0)},
		{At: 0, Key: "b", Priority: PriorityNormal, Fn: release(1)},
		{At: 10, Key: "c", Priority: PriorityNormal, Fn: func(sim.Time) {}},
	})
	eng.Run()
	if mq := g.MaxQueued(); mq != 1 {
		t.Fatalf("max queued = %d, want 1 (only the blocked third arrival)", mq)
	}
}

// BenchmarkGateDrain measures one whole drain per op: 10,000 arrivals at
// t=0 spread over the three bands, through a 4-slot gate, each ticket
// released 1 ns after its grant.
func BenchmarkGateDrain(b *testing.B) {
	const n = 10000
	for i := 0; i < b.N; i++ {
		eng := &sim.Engine{}
		g := NewGate(eng, 4)
		var tks []*Ticket
		arrivals := make([]Arrival, n)
		for k := range arrivals {
			arrivals[k] = Arrival{Key: "t", Priority: Priority(k % int(numPriorities)), Fn: func(gr sim.Time) {
				eng.At(gr+1, func(now sim.Time) { g.Release(tks[k], now) })
			}}
		}
		tks = g.Playback(arrivals)
		eng.Run()
		if g.Running() != 0 || g.Pending() != 0 {
			b.Fatalf("drain left %d running, %d pending", g.Running(), g.Pending())
		}
	}
}
