package sim

import "testing"

// TestAdmissionImmediateGrant pins the uncontended path: with free
// capacity, the grant fires at the submission instant with zero wait.
func TestAdmissionImmediateGrant(t *testing.T) {
	eng := &Engine{}
	a := NewAdmission(eng, 3, 2, 1)
	var granted Time = -1
	tk := a.Submit(10, "a", 1, func(now Time) { granted = now })
	eng.Run()
	if granted != 10 {
		t.Fatalf("granted at %v, want 10", granted)
	}
	if tk.Waited() != 0 {
		t.Fatalf("waited %v, want 0", tk.Waited())
	}
	if a.Running() != 1 || a.Pending() != 0 {
		t.Fatalf("running=%d pending=%d", a.Running(), a.Pending())
	}
}

// TestAdmissionGlobalCapQueues pins the backbone property: the second
// ticket's grant time equals the first ticket's release time, and the
// interval is recorded as queueing delay.
func TestAdmissionGlobalCapQueues(t *testing.T) {
	eng := &Engine{}
	a := NewAdmission(eng, 1, 1, 0)
	var t1, t2 Time = -1, -1
	tk1 := a.Submit(0, "a", 0, func(now Time) { t1 = now })
	tk2 := a.Submit(0, "b", 0, func(now Time) { t2 = now })
	eng.Run()
	if t1 != 0 || t2 != -1 {
		t.Fatalf("before release: t1=%v t2=%v", t1, t2)
	}
	a.Release(tk1, 500)
	eng.Run()
	if t2 != 500 {
		t.Fatalf("queued grant at %v, want the release time 500", t2)
	}
	if tk2.Waited() != 500 {
		t.Fatalf("waited %v, want 500", tk2.Waited())
	}
	if a.Waited() != 500 {
		t.Fatalf("aggregate wait %v, want 500", a.Waited())
	}
}

// TestAdmissionBandPriority pins dispatch order on release: the
// highest-band queued ticket wins regardless of submission order.
func TestAdmissionBandPriority(t *testing.T) {
	eng := &Engine{}
	a := NewAdmission(eng, 3, 1, 0)
	hold := a.Submit(0, "hold", 2, func(Time) {})
	var order []string
	submit := func(key string, band int) *Ticket {
		return a.Submit(0, key, band, func(Time) { order = append(order, key) })
	}
	submit("low", 0)
	high := submit("high", 2)
	mid := submit("mid", 1)
	eng.Run()

	a.Release(hold, 100)
	eng.Run()
	a.Release(high, 200)
	eng.Run()
	a.Release(mid, 300)
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

// TestAdmissionPerKeySkip pins work conservation: a queued ticket whose
// key is at its per-key cap is skipped, not head-of-line blocking.
func TestAdmissionPerKeySkip(t *testing.T) {
	eng := &Engine{}
	a := NewAdmission(eng, 1, 2, 1)
	var order []string
	note := func(key string) func(Time) {
		return func(Time) { order = append(order, key) }
	}
	ta1 := a.Submit(0, "a", 0, note("a1"))
	tb1 := a.Submit(0, "b", 0, note("b1"))
	// Both slots busy now; queue a's second job ahead of c's first.
	a.Submit(0, "a", 0, note("a2"))
	a.Submit(0, "c", 0, note("c1"))
	eng.Run()
	if len(order) != 2 || order[0] != "a1" || order[1] != "b1" {
		t.Fatalf("granted %v, want a1,b1", order)
	}
	// A slot frees while "a" is still running: a2 must be skipped (key at
	// cap) and c1 granted instead.
	a.Release(tb1, 100)
	eng.Run()
	if len(order) != 3 || order[2] != "c1" {
		t.Fatalf("after b1 release: %v, want c1 granted (a2 skipped)", order)
	}
	a.Release(ta1, 200)
	eng.Run()
	if len(order) != 4 || order[3] != "a2" {
		t.Fatalf("after a1 release: %v, want a2 granted", order)
	}
}

// TestAdmissionFIFOWithinBand pins arrival order within one band.
func TestAdmissionFIFOWithinBand(t *testing.T) {
	eng := &Engine{}
	a := NewAdmission(eng, 1, 1, 0)
	var order []string
	hold := a.Submit(0, "hold", 0, func(Time) {})
	tks := make([]*Ticket, 3)
	for i, key := range []string{"x", "y", "z"} {
		key := key
		tks[i] = a.Submit(Time(i), key, 0, func(Time) { order = append(order, key) })
	}
	eng.Run()
	a.Release(hold, 10)
	eng.Run()
	a.Release(tks[0], 20)
	eng.Run()
	a.Release(tks[1], 30)
	eng.Run()
	if len(order) != 3 || order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("grant order %v, want x,y,z", order)
	}
	if a.MaxQueued() != 3 {
		t.Fatalf("max queued %d, want 3", a.MaxQueued())
	}
}

// TestBatchedGrantsTickAligned pins batched-grant mode's core rule: with
// quantum q and batch K, tickets submitted at t=0 are admitted K per tick
// at t = 0, q, 2q, ... instead of all at once.
func TestBatchedGrantsTickAligned(t *testing.T) {
	eng := &Engine{}
	a := NewAdmissionWithPolicy(eng, 1, Policy{Quantum: 1000, Batch: 2})
	grants := make(map[string]Time)
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		key := key
		a.Submit(0, key, 0, func(now Time) { grants[key] = now })
	}
	eng.Run()
	want := map[string]Time{"a": 0, "b": 0, "c": 1000, "d": 1000, "e": 2000}
	for key, at := range want {
		if grants[key] != at {
			t.Fatalf("grants = %v, want %v", grants, want)
		}
	}
	if a.Ticks() != 3 {
		t.Fatalf("ticks = %d, want 3", a.Ticks())
	}
}

// TestBatchedReleaseWaitsForTick pins the per-release vs batched
// difference: capacity freed mid-quantum is handed out at the next tick
// boundary, not at the release instant.
func TestBatchedReleaseWaitsForTick(t *testing.T) {
	eng := &Engine{}
	a := NewAdmissionWithPolicy(eng, 1, Policy{Slots: 1, Quantum: 1000, Batch: 1})
	var t1, t2 Time = -1, -1
	tk1 := a.Submit(0, "a", 0, func(now Time) { t1 = now })
	a.Submit(0, "b", 0, func(now Time) { t2 = now })
	eng.Run()
	if t1 != 0 || t2 != -1 {
		t.Fatalf("before release: t1=%v t2=%v", t1, t2)
	}
	a.Release(tk1, 1500)
	eng.Run()
	if t2 != 2000 {
		t.Fatalf("queued grant at %v, want next tick 2000 (release was 1500)", t2)
	}
}

// TestBatchedUnlimitedBatchStillTickAligned pins Batch <= 0 semantics: a
// tick admits everything capacity allows, but off-boundary submissions
// still wait for the boundary.
func TestBatchedUnlimitedBatchStillTickAligned(t *testing.T) {
	eng := &Engine{}
	a := NewAdmissionWithPolicy(eng, 1, Policy{Quantum: 1000})
	grants := make(map[string]Time)
	for _, key := range []string{"a", "b", "c"} {
		key := key
		a.Submit(300, key, 0, func(now Time) { grants[key] = now })
	}
	eng.Run()
	for _, key := range []string{"a", "b", "c"} {
		if grants[key] != 1000 {
			t.Fatalf("grants = %v, want all at the 1000 boundary", grants)
		}
	}
	if a.Ticks() != 1 {
		t.Fatalf("ticks = %d, want 1", a.Ticks())
	}
}

// TestBatchedKeepsBandPriorityAndWorkConservation pins that a batched
// tick dispatches with the same policy as per-release mode: highest band
// first, capped keys skipped rather than head-of-line blocking.
func TestBatchedKeepsBandPriorityAndWorkConservation(t *testing.T) {
	eng := &Engine{}
	a := NewAdmissionWithPolicy(eng, 3, Policy{Slots: 2, PerKey: 1, Quantum: 1000, Batch: 2})
	var order []string
	note := func(key string) func(Time) {
		return func(Time) { order = append(order, key) }
	}
	a.Submit(0, "a", 0, note("a-low"))
	a.Submit(0, "a", 2, note("a-high"))
	a.Submit(0, "b", 1, note("b-mid"))
	eng.Run()
	// One tick: a-high (band 2), then b-mid (band 1); a-low is skipped —
	// its key is at the per-key cap — not head-of-line blocking b.
	if len(order) != 2 || order[0] != "a-high" || order[1] != "b-mid" {
		t.Fatalf("granted %v, want a-high then b-mid", order)
	}
}

// TestPerReleaseModeHasNoTicks pins that the default policy is untouched
// by the batching machinery.
func TestPerReleaseModeHasNoTicks(t *testing.T) {
	eng := &Engine{}
	a := NewAdmission(eng, 1, 1, 0)
	tk1 := a.Submit(0, "a", 0, func(Time) {})
	a.Submit(0, "b", 0, func(Time) {})
	eng.Run()
	a.Release(tk1, 777)
	eng.Run()
	if a.Ticks() != 0 {
		t.Fatalf("ticks = %d, want 0 in per-release mode", a.Ticks())
	}
}

// TestAdmissionDequeueAllocs pins the in-place dequeue: granting the next
// ticket out of a 1000-deep queue allocates nothing (the grant shifts the
// queue down instead of copying it into a fresh array) and keeps FIFO
// order — Release panics unless tickets[next] is the running one.
func TestAdmissionDequeueAllocs(t *testing.T) {
	const depth = 1000
	eng := &Engine{}
	a := NewAdmission(eng, 1, 1, 0)
	fn := func(Time) {}
	tickets := make([]*Ticket, depth)
	for i := range tickets {
		tickets[i] = a.Submit(0, "k", 0, fn)
	}
	eng.Run() // fire the first grant, warming the event pool
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		a.Release(tickets[next], eng.Now())
		next++
		eng.Run()
	})
	if allocs > 0 {
		t.Errorf("a grant out of a %d-deep queue allocates %.1f objects, want 0", depth, allocs)
	}
	if !tickets[next].running || a.Pending() != depth-1-next {
		t.Errorf("after %d grants: ticket %d running=%v, pending %d, want true and %d",
			next, next, tickets[next].running, a.Pending(), depth-1-next)
	}
}
