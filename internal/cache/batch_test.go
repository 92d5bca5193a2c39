package cache

import (
	"testing"
)

// xorshift keeps the equivalence tests deterministic without importing
// internal/sim (which would cycle).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545F4914F6CDD1D
}

// NewFromGeometry builds a cache from (lineSize, sets, ways) directly.
func NewFromGeometry(name string, lineSize uint64, sets, ways int) *Cache {
	return New(name, lineSize*uint64(sets)*uint64(ways), lineSize, ways)
}

// snapshot captures the observable state of a cache: stats plus the
// resident set with dirty bits (LRU order is observed indirectly through
// the eviction streams of the equivalence drivers).
func snapshot(c *Cache) (Stats, map[uint64]bool) {
	resident := make(map[uint64]bool)
	for i, t := range c.touch {
		if t>>1 >= c.start {
			resident[c.tags[i]<<c.lineShift] = t&1 != 0
		}
	}
	return c.Stats(), resident
}

func sameState(t *testing.T, a, b *Cache, ctx string) {
	t.Helper()
	as, ar := snapshot(a)
	bs, br := snapshot(b)
	if as != bs {
		t.Fatalf("%s: stats diverge: %+v vs %+v", ctx, as, bs)
	}
	if len(ar) != len(br) {
		t.Fatalf("%s: resident sets diverge: %d vs %d lines", ctx, len(ar), len(br))
	}
	for addr, dirty := range ar {
		bd, ok := br[addr]
		if !ok || bd != dirty {
			t.Fatalf("%s: line %#x resident=%v dirty=%v vs ok=%v dirty=%v",
				ctx, addr, true, dirty, ok, bd)
		}
	}
}

// TestAccessRunMatchesRepeatedAccess pins the sequential-run contract:
// AccessRun(addr, write, n) leaves the cache in exactly the state n
// Access(addr, write) calls do, returns the first probe's result, and
// both paths keep emitting identical evictions afterwards — across a
// randomized interleaving of runs, single probes, and invalidations, on a
// deliberately tiny cache so evictions are constant.
func TestAccessRunMatchesRepeatedAccess(t *testing.T) {
	const lineSize = 64
	run := NewFromGeometry("run", lineSize, 4, 2)
	ref := NewFromGeometry("ref", lineSize, 4, 2)
	rng := xorshift(42)
	for op := 0; op < 20000; op++ {
		addr := (rng.next() % 64) * lineSize
		write := rng.next()%2 == 0
		n := int64(rng.next()%7) - 1 // includes n <= 0 no-ops
		switch rng.next() % 3 {
		case 0: // bulk vs repeated
			h1, e1, v1 := run.AccessRun(addr, write, n)
			var h2 bool
			var e2 Eviction
			var v2 bool
			for i := int64(0); i < n; i++ {
				h, e, v := ref.Access(addr, write)
				if i == 0 {
					h2, e2, v2 = h, e, v
				}
			}
			if n > 0 && (h1 != h2 || e1 != e2 || v1 != v2) {
				t.Fatalf("op %d: first-probe result diverges: (%v %v %v) vs (%v %v %v)",
					op, h1, e1, v1, h2, e2, v2)
			}
		case 1: // single probes stay aligned
			h1, e1, v1 := run.Access(addr, write)
			h2, e2, v2 := ref.Access(addr, write)
			if h1 != h2 || e1 != e2 || v1 != v2 {
				t.Fatalf("op %d: Access diverges: (%v %v %v) vs (%v %v %v)",
					op, h1, e1, v1, h2, e2, v2)
			}
		case 2: // invalidation
			d1 := run.Invalidate(addr)
			d2 := ref.Invalidate(addr)
			if d1 != d2 {
				t.Fatalf("op %d: Invalidate diverges: %v vs %v", op, d1, d2)
			}
		}
		if op%500 == 0 {
			sameState(t, run, ref, "periodic")
		}
	}
	sameState(t, run, ref, "final")
}

// TestInvalidatedOrReplacedLineMisses pins that neither an invalidated
// line nor one whose way was refilled with another line can hit again:
// the probe re-validates both the line number and the touch stamp.
func TestInvalidatedOrReplacedLineMisses(t *testing.T) {
	c := NewFromGeometry("one", 64, 1, 1) // one line total
	c.Access(0, true)
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("second probe of resident line missed")
	}
	c.Invalidate(0)
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("invalidated line hit")
	}
	// Replace the way with a different line; probing the old one must miss.
	c.Access(64, false)
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("replaced line hit")
	}
}
