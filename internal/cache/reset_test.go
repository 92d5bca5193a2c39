package cache

import "testing"

// TestResetEquivalentToFresh pins the tick-stamped Reset: a churned
// then Reset cache must behave exactly like a freshly constructed one —
// same hits, misses, evictions, writebacks, and victim choices — under an
// identical access sequence. This is the contract the resource pool's
// recycled page caches and CMTs rely on.
func TestResetEquivalentToFresh(t *testing.T) {
	const lineSize, sets, ways = 64, 16, 4
	footprint := uint64(lineSize * sets * ways * 8) // 8x capacity: plenty of evictions

	a := NewFromGeometry("a", lineSize, sets, ways)
	churn := xorshift(99)
	for i := 0; i < 5000; i++ {
		a.Access(churn.next()%footprint, i%3 == 0)
	}
	for i := 0; i < 5000; i++ {
		addr := churn.next() % footprint
		if i%7 == 0 {
			a.Invalidate(a.Align(addr))
			continue
		}
		a.Access(addr, i%2 == 0)
	}
	a.Reset()
	if s := a.Stats(); s != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", s)
	}
	if n := a.Resident(); n != 0 {
		t.Fatalf("%d resident lines after Reset", n)
	}

	b := NewFromGeometry("b", lineSize, sets, ways)
	drive := xorshift(7)
	for i := 0; i < 20000; i++ {
		addr := drive.next() % footprint
		write := i%5 == 0
		ah, aev, aevd := a.Access(addr, write)
		bh, bev, bevd := b.Access(addr, write)
		if ah != bh || aev != bev || aevd != bevd {
			t.Fatalf("step %d: reset cache (%v %+v %v) vs fresh (%v %+v %v)",
				i, ah, aev, aevd, bh, bev, bevd)
		}
	}
	sameState(t, a, b, "after identical drive")
}

// TestResetRepeatable pins that Reset works more than once: the contents
// after each Reset behave like a fresh cache.
func TestResetRepeatable(t *testing.T) {
	c := NewFromGeometry("c", 64, 4, 2)
	var want Stats
	for round := 0; round < 5; round++ {
		rng := xorshift(42)
		for i := 0; i < 1000; i++ {
			c.Access(rng.next()%(64*4*2*4), i%2 == 0)
		}
		if round == 0 {
			want = c.Stats()
		} else if got := c.Stats(); got != want {
			t.Fatalf("round %d stats %+v, want %+v", round, got, want)
		}
		c.Reset()
	}
}
