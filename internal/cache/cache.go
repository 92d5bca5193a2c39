// Package cache implements a set-associative cache simulator with LRU
// replacement and write-back dirty tracking. It is the building block for
// the MEE counter cache (mee.TrafficModel and its reference), the cached
// FTL mapping table (ftl.MappingCache), and the controller DRAM page cache
// (dram.PageCache) in the IceClave simulator.
//
// The cache tracks presence and recency of fixed-size lines identified by a
// 64-bit address; it stores no payload. Callers model data movement by
// acting on the hit/miss/eviction results.
//
// Layout: each way is two words in two parallel arrays, its line number
// (address >> log2(line size)) and its last-touch tick shifted left by one
// with the dirty flag in bit 0. Line size and set count are powers of two,
// so a probe finds its set with a shift and a mask. Ticks never restart:
// a way holds a line only if it was touched at or after the tick of the
// last Reset, which is what makes Reset O(1).
//
// Concurrency contract: Cache carries mutable recency state and is not
// safe for concurrent use. Every instance is serialized by its owner —
// the counter cache and the page cache by the one replay that owns them,
// and the CMT by tee.Runtime's lock or, in a replay, by that replay.
package cache

import (
	"fmt"
	"math/bits"
)

// Eviction describes a line pushed out of the cache by an insertion.
type Eviction struct {
	Addr  uint64 // line-aligned address of the victim
	Dirty bool   // whether the victim must be written back
}

// Stats aggregates cache activity counters.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// HitRate returns Hits / (Hits + Misses), or 0 if the cache was never
// accessed.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative cache. Create instances with New.
type Cache struct {
	name      string
	lineShift uint   // log2 of the line size
	setMask   uint64 // set count - 1
	ways      int
	tags      []uint64 // sets*ways, set-major: line address >> lineShift
	touch     []uint64 // parallel to tags: last-touch tick << 1 | dirty
	tick      uint64   // last tick handed out; never restarts
	start     uint64   // first tick of the current contents (see Reset)
	stats     Stats
}

// New returns a cache with the given total capacity in bytes, line size in
// bytes, and associativity. The line size must be a power of two,
// capacity an exact multiple of lineSize*ways, and the set count a power
// of two; these are configuration errors, so New panics on violation.
func New(name string, capacity, lineSize uint64, ways int) *Cache {
	if lineSize == 0 || ways < 1 || capacity == 0 {
		panic("cache: invalid geometry")
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, lineSize))
	}
	if capacity%(lineSize*uint64(ways)) != 0 {
		panic(fmt.Sprintf("cache %s: capacity %d not a multiple of lineSize*ways", name, capacity))
	}
	sets := capacity / (lineSize * uint64(ways))
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	n := sets * uint64(ways)
	return &Cache{
		name:      name,
		lineShift: uint(bits.TrailingZeros64(lineSize)),
		setMask:   sets - 1,
		ways:      ways,
		tags:      make([]uint64, n),
		touch:     make([]uint64, n),
		start:     1,
	}
}

// Name returns the label given at construction.
func (c *Cache) Name() string { return c.name }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return 1 << c.lineShift }

// Capacity returns the total capacity in bytes.
func (c *Cache) Capacity() uint64 { return uint64(len(c.tags)) << c.lineShift }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Align returns addr rounded down to its line boundary.
func (c *Cache) Align(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// locate returns addr's line number and the index of its set's first way.
func (c *Cache) locate(addr uint64) (tag uint64, base int) {
	tag = addr >> c.lineShift
	return tag, int(tag&c.setMask) * c.ways
}

// find returns the index of the way in the set at base that holds line
// tag, or -1.
func (c *Cache) find(tag uint64, base int) int {
	tags := c.tags[base : base+c.ways]
	touch := c.touch[base : base+len(tags)]
	live := c.start << 1
	for w, t := range tags {
		if t == tag && touch[w] >= live {
			return base + w
		}
	}
	return -1
}

// Contains reports whether addr's line is resident, without touching LRU
// state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.find(c.locate(addr)) >= 0 }

// Access touches addr's line. write marks the line dirty. It returns
// whether the access hit and, on a miss that displaced a valid line, the
// eviction (otherwise ev.Addr is 0 and ev.Dirty is false with hit==false
// meaning a cold fill).
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction, evicted bool) {
	c.tick++
	stamp := c.tick << 1
	if write {
		stamp |= 1
	}
	tag, base := c.locate(addr)
	if i := c.find(tag, base); i >= 0 {
		c.stats.Hits++
		c.touch[i] = stamp | c.touch[i]&1
		return true, Eviction{}, false
	}
	c.stats.Misses++
	// Victim: the first empty way, else the least recently touched one.
	// Comparing whole words is exact: every resident line carries a
	// distinct tick, so the dirty bit never decides.
	live := c.start << 1
	touch := c.touch[base : base+c.ways]
	victim := 0
	for w, t := range touch {
		if t < live {
			victim = w
			break
		}
		if t < touch[victim] {
			victim = w
		}
	}
	i := base + victim
	if old := c.touch[i]; old >= live {
		ev = Eviction{Addr: c.tags[i] << c.lineShift, Dirty: old&1 != 0}
		evicted = true
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tags[i] = tag
	c.touch[i] = stamp
	return false, ev, evicted
}

// AccessRun performs n back-to-back accesses to addr's line in one call —
// the sequential-run fast path for streaming scans, where one metadata
// line is re-touched once per data line. It is exactly equivalent to
// calling Access(addr, write) n times: after the first probe the line is
// resident, dirty if write, and the most recently touched line of the
// cache, so accesses 2..n are hits that change no LRU order, and the run
// is settled with one counter bump. The first probe's result is
// returned; n <= 0 touches nothing.
func (c *Cache) AccessRun(addr uint64, write bool, n int64) (hit bool, ev Eviction, evicted bool) {
	if n <= 0 {
		return false, Eviction{}, false
	}
	hit, ev, evicted = c.Access(addr, write)
	c.stats.Hits += n - 1
	return hit, ev, evicted
}

// Invalidate drops addr's line if resident, returning whether it was dirty.
// Invalidation does not count as an eviction in the statistics.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	i := c.find(c.locate(addr))
	if i < 0 {
		return false
	}
	wasDirty = c.touch[i]&1 != 0
	c.touch[i] = 0
	return wasDirty
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	live := c.start << 1
	for _, t := range c.touch {
		if t >= live {
			n++
		}
	}
	return n
}

// ResetStats clears the activity counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the cache to its post-New state — empty, clean, zero
// stats — without touching the way arrays: every resident line was
// touched at or before the current tick, so moving start past it empties
// the cache at once, and resetting a multi-megabyte cache costs the same
// as resetting a tiny one. LRU order compares ticks only against each
// other, so the ticks carried across a Reset change no victim choice.
func (c *Cache) Reset() {
	c.start = c.tick + 1
	c.stats = Stats{}
}
