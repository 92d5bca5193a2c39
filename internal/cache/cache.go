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
// Concurrency contract: Cache carries mutable recency state and is not
// safe for concurrent use. Every instance is serialized by its owner —
// the counter cache and the page cache by the one replay that owns them,
// and the CMT by tee.Runtime's lock or, in a replay, by that replay.
package cache

import "fmt"

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

type line struct {
	tag uint64
	lru uint64 // last-touch tick; larger is more recent
	// gen is the cache generation the line was filled in. The line is
	// resident only while gen matches the cache's current generation; a
	// zero gen (the zero value, or an explicit invalidation) never
	// matches, since the cache generation starts at 1. This is what makes
	// Reset O(1) instead of O(lines).
	gen   uint32
	dirty bool
}

// Cache is a set-associative cache. Create instances with New.
type Cache struct {
	name     string
	lineSize uint64
	sets     int
	ways     int
	lines    []line // sets*ways, set-major
	gen      uint32 // current generation; lines with a different gen are empty
	tick     uint64
	stats    Stats
	// mru is the index into lines of the most recently touched line, or -1.
	// Streaming callers (the MEE counter cache re-probing one counter line
	// per data line) hit it far more often than not, skipping the set scan.
	mru int
}

// New returns a cache with the given total capacity in bytes, line size in
// bytes, and associativity. Capacity must be an exact multiple of
// lineSize*ways and the set count must be a power of two; these are
// configuration errors, so New panics on violation.
func New(name string, capacity, lineSize uint64, ways int) *Cache {
	if lineSize == 0 || ways < 1 || capacity == 0 {
		panic("cache: invalid geometry")
	}
	if capacity%(lineSize*uint64(ways)) != 0 {
		panic(fmt.Sprintf("cache %s: capacity %d not a multiple of lineSize*ways", name, capacity))
	}
	sets := int(capacity / (lineSize * uint64(ways)))
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	return &Cache{
		name:     name,
		lineSize: lineSize,
		sets:     sets,
		ways:     ways,
		lines:    make([]line, sets*ways),
		gen:      1,
		mru:      -1,
	}
}

// Name returns the label given at construction.
func (c *Cache) Name() string { return c.name }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() uint64 { return c.lineSize }

// Capacity returns the total capacity in bytes.
func (c *Cache) Capacity() uint64 { return c.lineSize * uint64(c.sets) * uint64(c.ways) }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Align returns addr rounded down to its line boundary.
func (c *Cache) Align(addr uint64) uint64 { return addr &^ (c.lineSize - 1) }

func (c *Cache) setFor(addr uint64) int {
	return int((addr / c.lineSize) % uint64(c.sets))
}

func (c *Cache) set(i int) []line { return c.lines[i*c.ways : (i+1)*c.ways] }

// lookup returns the way holding addr's line, or -1.
func (c *Cache) lookup(addr uint64) (setIdx, way int) {
	tag := addr / c.lineSize
	setIdx = c.setFor(addr)
	for w, ln := range c.set(setIdx) {
		if ln.gen == c.gen && ln.tag == tag {
			return setIdx, w
		}
	}
	return setIdx, -1
}

// Contains reports whether addr's line is resident, without touching LRU
// state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	_, way := c.lookup(addr)
	return way >= 0
}

// Access touches addr's line. write marks the line dirty. It returns
// whether the access hit and, on a miss that displaced a valid line, the
// eviction (otherwise ev.Addr is 0 and ev.Dirty is false with hit==false
// meaning a cold fill). Access is the single-probe form of the core below;
// AccessRun amortizes its per-call work over a run of one line.
func (c *Cache) Access(addr uint64, write bool) (hit bool, ev Eviction, evicted bool) {
	hit, ev, evicted, _ = c.access(addr, write)
	return hit, ev, evicted
}

// access is the probe core shared by Access and AccessRun.
// It additionally returns the touched line's index into c.lines so bulk
// callers can extend the touch without re-resolving the set.
func (c *Cache) access(addr uint64, write bool) (hit bool, ev Eviction, evicted bool, idx int) {
	c.tick++
	tag := addr / c.lineSize
	// MRU shortcut: streaming scans re-probe one metadata line per data
	// line, so the last touched line is the next probe's answer far more
	// often than not. A tag match implies a set match (set = tag mod sets),
	// so this is pure lookup elision — stats and LRU state are identical.
	if c.mru >= 0 {
		if ln := &c.lines[c.mru]; ln.gen == c.gen && ln.tag == tag {
			c.stats.Hits++
			ln.lru = c.tick
			if write {
				ln.dirty = true
			}
			return true, Eviction{}, false, c.mru
		}
	}
	setIdx, way := c.lookup(addr)
	set := c.set(setIdx)
	if way >= 0 {
		c.stats.Hits++
		set[way].lru = c.tick
		if write {
			set[way].dirty = true
		}
		c.mru = setIdx*c.ways + way
		return true, Eviction{}, false, c.mru
	}
	c.stats.Misses++
	// Choose victim: first invalid way, else true-LRU.
	victim := 0
	for w := range set {
		if set[w].gen != c.gen {
			victim = w
			break
		}
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	if set[victim].gen == c.gen {
		ev = Eviction{Addr: set[victim].tag * c.lineSize, Dirty: set[victim].dirty}
		evicted = true
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	set[victim] = line{tag: tag, gen: c.gen, dirty: write, lru: c.tick}
	c.mru = setIdx*c.ways + victim
	return false, ev, evicted, c.mru
}

// AccessRun performs n back-to-back accesses to addr's line in one call —
// the sequential-run fast path for streaming scans, where one metadata
// line is re-touched once per data line. It is exactly equivalent to
// calling Access(addr, write) n times: after the first probe the line is
// resident, so accesses 2..n are hits by construction (hits never evict),
// and the run is settled with one counter bump and one LRU stamp. The
// first probe's result is returned; n <= 0 touches nothing.
func (c *Cache) AccessRun(addr uint64, write bool, n int64) (hit bool, ev Eviction, evicted bool) {
	if n <= 0 {
		return false, Eviction{}, false
	}
	var idx int
	hit, ev, evicted, idx = c.access(addr, write)
	if n > 1 {
		c.tick += uint64(n - 1)
		c.stats.Hits += n - 1
		c.lines[idx].lru = c.tick // dirty already set by the first probe
	}
	return hit, ev, evicted
}

// Invalidate drops addr's line if resident, returning whether it was dirty.
// Invalidation does not count as an eviction in the statistics.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	setIdx, way := c.lookup(addr)
	if way < 0 {
		return false
	}
	set := c.set(setIdx)
	wasDirty = set[way].dirty
	set[way] = line{}
	return wasDirty
}

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].gen == c.gen {
			n++
		}
	}
	return n
}

// ResetStats clears the activity counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the cache to its post-New state — empty, clean, zero
// stats — without touching the line array: advancing the generation stamp
// orphans every resident line at once, so resetting a multi-megabyte
// cache costs the same as resetting a tiny one. Only when the 32-bit
// generation wraps (once per ~4 billion resets) could a stale line alias
// the new generation, and that one reset clears the array for real.
func (c *Cache) Reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.lines)
		c.gen = 1
	}
	c.tick = 0
	c.stats = Stats{}
	c.mru = -1
}
