package sched

import (
	"context"
	"fmt"
	"testing"

	"iceclave/internal/sim"
)

// TestQueuePopAllocs pins the dequeue cost of the admission policy both
// gates share: out of a 1000-deep band, pop returns entries in FIFO order
// and allocates nothing, both when it takes the band's head and when it
// grants from behind an entry skipped for its key's cap.
func TestQueuePopAllocs(t *testing.T) {
	const depth = 1000
	for _, tc := range []struct {
		name    string
		skipped bool
	}{{"head", false}, {"behind-skipped", true}} {
		t.Run(tc.name, func(t *testing.T) {
			q := newQueue[int](0, 1)
			if tc.skipped {
				q.push("capped", PriorityNormal, -1)
				if v, _ := q.pop(); v != -1 {
					t.Fatal("setup pop did not grant the capped key's first entry")
				}
				q.push("capped", PriorityNormal, -2) // skipped from here on
			}
			for i := 0; i < depth; i++ {
				q.push("k", PriorityNormal, i)
			}
			k := 0
			allocs := testing.AllocsPerRun(100, func() {
				v, ok := q.pop()
				if !ok || v != k {
					t.Fatalf("pop %d returned (%d, %v)", k, v, ok)
				}
				q.done("k")
				k++
			})
			if allocs > 0 {
				t.Errorf("pop out of a %d-deep band allocates %.1f objects, want 0", depth, allocs)
			}
			want := depth - k
			if tc.skipped {
				want++
				if b := q.bands[PriorityNormal]; b[0].v != -2 {
					t.Errorf("band head is %d after %d pops, want the skipped entry", b[0].v, k)
				}
			}
			if q.waiting != want || len(q.bands[PriorityNormal]) != want {
				t.Errorf("queue holds %d (band %d) after %d pops, want %d",
					q.waiting, len(q.bands[PriorityNormal]), k, want)
			}
		})
	}
}

// popWant pops q and fails unless it grants want; want "" means the caps
// must admit nothing.
func popWant(t *testing.T, q *queue[string], want string) {
	t.Helper()
	got, ok := q.pop()
	if want == "" && ok {
		t.Fatalf("pop granted %q, want nothing", got)
	}
	if want != "" && (!ok || got != want) {
		t.Fatalf("pop = (%q, %v), want %q", got, ok, want)
	}
}

// TestAdmissionPerKeySkip pins work conservation: a queued entry whose
// key is at its per-key cap is skipped, not head-of-line blocking.
func TestAdmissionPerKeySkip(t *testing.T) {
	q := newQueue[string](2, 1)
	q.push("a", PriorityLow, "a1")
	q.push("b", PriorityLow, "b1")
	popWant(t, &q, "a1")
	popWant(t, &q, "b1")
	// Both slots busy; a's second entry queues ahead of c's first.
	q.push("a", PriorityLow, "a2")
	q.push("c", PriorityLow, "c1")
	popWant(t, &q, "")
	// A slot frees while "a" still runs: a2 is skipped (key at cap) and
	// c1 granted instead.
	q.done("b")
	popWant(t, &q, "c1")
	q.done("a")
	popWant(t, &q, "a2")
}

// TestQueueCappedKeyYieldsToOtherKey pins the per-key cap against band
// order, the pool's TenantMaxInFlight scenario: a capped key's high-band
// entry yields to another key's until its running entry is done.
func TestQueueCappedKeyYieldsToOtherKey(t *testing.T) {
	q := newQueue[string](2, 1)
	q.push("a", PriorityNormal, "a/normal")
	q.push("b", PriorityNormal, "b/normal")
	popWant(t, &q, "a/normal")
	popWant(t, &q, "b/normal")
	q.push("a", PriorityHigh, "a/high") // key a at cap: waits despite its band
	q.push("c", PriorityLow, "c/low")
	q.push("d", PriorityHigh, "d/high")
	popWant(t, &q, "")
	// b is done: key a is still capped, so the high-band winner is d.
	q.done("b")
	popWant(t, &q, "d/high")
	// a is done: its queued high-band entry now beats c's low.
	q.done("a")
	popWant(t, &q, "a/high")
	if q.waiting != 1 || q.running != 2 {
		t.Fatalf("waiting=%d running=%d, want 1/2", q.waiting, q.running)
	}
}

// TestQueueWithoutPerKeyCapKeepsNoCounts pins that a queue with no
// per-key cap — the gate's — does no per-key bookkeeping: grants and
// releases leave its per-key count map empty.
func TestQueueWithoutPerKeyCapKeepsNoCounts(t *testing.T) {
	q := newQueue[string](2, 0)
	q.push("a", PriorityNormal, "a1")
	q.push("a", PriorityHigh, "a2")
	q.push("b", PriorityLow, "b1")
	popWant(t, &q, "a2")
	popWant(t, &q, "a1")
	popWant(t, &q, "")
	if len(q.byKey) != 0 {
		t.Fatalf("after two grants the uncapped queue counts keys %v, want none", q.byKey)
	}
	q.done("a")
	popWant(t, &q, "b1")
	q.done("a")
	q.done("b")
	if len(q.byKey) != 0 || q.running != 0 {
		t.Fatalf("after releases: byKey %v, running %d, want none and 0", q.byKey, q.running)
	}
}

// TestSchedulerAndGateGrantInOneOrder feeds one seeded sequence of
// (tenant, priority) submissions to both gates that pop the queue: a
// 1-worker Scheduler held on a first job until every submission is
// queued, and a 1-slot Gate receiving them all at one instant. Each gate
// releases its jobs in grant order; both must grant in the same order.
func TestSchedulerAndGateGrantInOneOrder(t *testing.T) {
	const n, tenants = 200, 8
	rng := sim.NewRNG(11)
	type sub struct {
		tenant string
		prio   Priority
	}
	subs := make([]sub, n)
	for i := range subs {
		subs[i] = sub{fmt.Sprintf("t%d", rng.Intn(tenants)), Priority(rng.Intn(int(numPriorities)))}
	}

	s := New(Config{Workers: 1, MaxInFlight: 1, TenantMaxInFlight: 1, QueueDepth: n})
	defer s.Close(context.Background())
	gate, held := make(chan struct{}), make(chan struct{})
	hold, err := s.Submit("hold", PriorityHigh, func(context.Context) error {
		close(held)
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	var pool []int
	hs := make([]*Handle, n)
	for i, sb := range subs {
		if hs[i], err = s.Submit(sb.tenant, sb.prio, func(context.Context) error {
			pool = append(pool, i) // one worker: jobs run one at a time
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	waitAll(t, append(hs, hold))

	eng := &sim.Engine{}
	g := NewGate(eng, 1)
	var virtual []int
	var tks []*Ticket
	arrivals := make([]Arrival, n)
	for i, sb := range subs {
		arrivals[i] = Arrival{Key: sb.tenant, Priority: sb.prio, Fn: func(gr sim.Time) {
			virtual = append(virtual, i)
			eng.At(gr+1, func(now sim.Time) { g.Release(tks[i], now) })
		}}
	}
	tks = g.Playback(arrivals)
	eng.Run()

	if len(pool) != n || len(virtual) != n {
		t.Fatalf("granted %d on the pool and %d on the gate, want %d each", len(pool), len(virtual), n)
	}
	for i := range pool {
		if pool[i] != virtual[i] {
			t.Fatalf("grant %d: pool ran submission %d, gate granted %d", i, pool[i], virtual[i])
		}
	}
}
