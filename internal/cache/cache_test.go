package cache

import (
	"testing"
	"testing/quick"
)

func TestBasicHitMiss(t *testing.T) {
	c := New("t", 1024, 64, 2) // 8 sets x 2 ways
	hit, _, _ := c.Access(0, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _, _ = c.Access(0, false)
	if !hit {
		t.Fatal("second access missed")
	}
	hit, _, _ = c.Access(63, false) // same line
	if !hit {
		t.Fatal("same-line access missed")
	}
	hit, _, _ = c.Access(64, false) // next line
	if hit {
		t.Fatal("different-line access hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits 2 misses", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New("t", 128, 64, 2) // 1 set x 2 ways
	c.Access(0, false)        // A
	c.Access(64, false)       // B
	c.Access(0, false)        // touch A; B is LRU
	_, ev, evicted := c.Access(128, false)
	if !evicted || ev.Addr != 64 {
		t.Fatalf("expected eviction of line 64, got %+v evicted=%v", ev, evicted)
	}
	if !c.Contains(0) || c.Contains(64) || !c.Contains(128) {
		t.Fatal("LRU victim selection wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New("t", 128, 64, 1) // 2 sets x 1 way
	c.Access(0, true)
	_, ev, evicted := c.Access(128, false) // maps to same set (stride 128)
	if !evicted || !ev.Dirty || ev.Addr != 0 {
		t.Fatalf("dirty eviction wrong: %+v evicted=%v", ev, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New("t", 128, 64, 1)
	c.Access(0, false)
	c.Access(0, true) // write hit
	_, ev, _ := c.Access(128, false)
	if !ev.Dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := New("t", 128, 64, 2)
	c.Access(0, true)
	if !c.Invalidate(0) {
		t.Fatal("invalidate of dirty line returned clean")
	}
	if c.Contains(0) {
		t.Fatal("line still resident after invalidate")
	}
	if c.Invalidate(0) {
		t.Fatal("invalidate of absent line returned dirty")
	}
}

func TestAlign(t *testing.T) {
	c := New("t", 128, 64, 1)
	if got := c.Align(130); got != 128 {
		t.Fatalf("Align(130) = %d, want 128", got)
	}
	if got := c.Align(64); got != 64 {
		t.Fatalf("Align(64) = %d, want 64", got)
	}
}

func TestCapacityBound(t *testing.T) {
	c := New("t", 1024, 64, 4)
	for a := uint64(0); a < 1<<16; a += 64 {
		c.Access(a, false)
	}
	if r := c.Resident(); r > 16 {
		t.Fatalf("resident = %d exceeds capacity of 16 lines", r)
	}
}

func TestGeometryValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero line":   func() { New("x", 1024, 0, 1) },
		"zero ways":   func() { New("x", 1024, 64, 0) },
		"not aligned": func() { New("x", 1000, 64, 2) },
		"non pow2":    func() { New("x", 64*3, 64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestResidencyInvariantProperty(t *testing.T) {
	// Property: after any access sequence, every line most recently
	// accessed within the last `ways` distinct lines of its set is still
	// resident, and resident count never exceeds capacity.
	f := func(addrs []uint16, writes []bool) bool {
		c := New("p", 2048, 64, 4)
		maxLines := int(c.Capacity() / c.LineSize())
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if c.Resident() > maxLines {
				return false
			}
			// The line just accessed must be resident.
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == int64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", s.HitRate())
	}
}
