package core

import (
	"sync"

	"iceclave/internal/dram"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
)

// poolKey identifies interchangeable replay stacks: the full simulator
// configuration plus the geometry it sized for the run's traces. Both are
// flat comparable values, so the key is a plain map key. Two runs with
// the same key build bit-identical hardware, which is what makes a reset
// recycled stack indistinguishable from a fresh one.
type poolKey struct {
	cfg Config
	geo flash.Geometry
}

// cacheKey identifies interchangeable cache components (page cache, CMT)
// by capacity and line size. Cache geometry depends only on the
// configuration, not on the flash geometry the traces sized, so these
// keys have far lower cardinality than poolKey — the 20 MB page-cache
// line array is shared across every workload of a configuration.
type cacheKey struct {
	bytes    uint64
	pageSize uint64
}

// devKey identifies interchangeable device+FTL pairs: same NAND geometry,
// same command timing.
type devKey struct {
	geo    flash.Geometry
	timing flash.Timing
}

// devFTL is a pooled device with the FTL built on top of it; the two are
// reset and recycled as a unit.
type devFTL struct {
	dev *flash.Device
	f   *ftl.FTL
}

// PoolStats is a snapshot of the resource pool's activity: how many
// replay setups were served from a recycled stack (Hits) versus a fresh
// or partially recycled build (Misses), and the total wall-clock time
// spent in replay setup (reset or construction, plus prepopulation).
// Misses also count setups performed while pooling was disabled.
type PoolStats struct {
	Hits    int64
	Misses  int64
	SetupNs int64
}

// resourcePool recycles replay stacks across runs, at two granularities.
// A whole stack that matches an upcoming run's (Config, Geometry) key is
// reused as-is — the zero-alloc path. A stack whose key has rotated out
// is disassembled on release: its page cache, CMT, and device+FTL pair
// drop into component pools with coarser keys, so even a full-stack miss
// reuses the allocations that dominate setup (the page-cache line array
// above all). Checked-out resources are owned exclusively by one run —
// the pool's mutex hands them over with a happens-before edge, so
// concurrent suite workers are race-free without any locking inside the
// resources themselves. Idle stacks and components are reset on acquire,
// not release, so a recycled stack is provably fresh at the moment of
// use and the reset cost lands in the setup accounting.
type resourcePool struct {
	mu      sync.Mutex
	idle    map[poolKey][]*resources
	idleLen int
	pages   map[cacheKey][]*dram.PageCache
	pageLen int
	cmts    map[cacheKey][]*ftl.MappingCache
	cmtLen  int
	devs    map[devKey][]devFTL
	devLen  int
	enabled bool
	stats   PoolStats
}

// Idle caps. Whole stacks pin the most memory (each holds a page cache),
// so their pool stays small — the suite's dominant repeat pattern is the
// same (config, workload) replayed across modes back to back, which a
// shallow pool already serves. Component pools are bounded per key and
// in total so a long run cannot pin unbounded idle memory.
const (
	poolMaxIdlePerKey = 2
	poolMaxIdleTotal  = 8

	poolMaxPartsPerKey = 2
	poolMaxPagesTotal  = 8
	poolMaxCMTsTotal   = 16
	poolMaxDevsTotal   = 16
)

var pool = resourcePool{
	idle:    make(map[poolKey][]*resources),
	pages:   make(map[cacheKey][]*dram.PageCache),
	cmts:    make(map[cacheKey][]*ftl.MappingCache),
	devs:    make(map[devKey][]devFTL),
	enabled: true,
}

// acquire pops an idle stack for key, or returns nil when the caller must
// build (pool empty for the key, or pooling disabled).
func (p *resourcePool) acquire(key poolKey) *resources {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[key]
	if !p.enabled || len(list) == 0 {
		p.stats.Misses++
		return nil
	}
	res := list[len(list)-1]
	list[len(list)-1] = nil
	p.idle[key] = list[:len(list)-1]
	p.idleLen--
	p.stats.Hits++
	return res
}

// acquirePage pops a pooled page cache of the right capacity, nil if none.
func (p *resourcePool) acquirePage(k cacheKey) *dram.PageCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.pages[k]
	if !p.enabled || len(list) == 0 {
		return nil
	}
	pc := list[len(list)-1]
	list[len(list)-1] = nil
	p.pages[k] = list[:len(list)-1]
	p.pageLen--
	return pc
}

// acquireCMT pops a pooled mapping cache of the right capacity, nil if none.
func (p *resourcePool) acquireCMT(k cacheKey) *ftl.MappingCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.cmts[k]
	if !p.enabled || len(list) == 0 {
		return nil
	}
	c := list[len(list)-1]
	list[len(list)-1] = nil
	p.cmts[k] = list[:len(list)-1]
	p.cmtLen--
	return c
}

// acquireDev pops a pooled device+FTL pair for the geometry and timing,
// reporting whether one was found.
func (p *resourcePool) acquireDev(k devKey) (devFTL, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.devs[k]
	if !p.enabled || len(list) == 0 {
		return devFTL{}, false
	}
	d := list[len(list)-1]
	list[len(list)-1] = devFTL{}
	p.devs[k] = list[:len(list)-1]
	p.devLen--
	return d, true
}

// release returns a finished run's stack to the pool: whole if its key
// still has room, otherwise disassembled into the component pools.
// Whatever exceeds every cap is dropped for the garbage collector.
func (p *resourcePool) release(res *resources) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.enabled {
		return
	}
	if list := p.idle[res.key]; p.idleLen < poolMaxIdleTotal && len(list) < poolMaxIdlePerKey {
		p.idle[res.key] = append(list, res)
		p.idleLen++
		return
	}
	ps := uint64(res.key.geo.PageSize)
	if k := (cacheKey{pageCacheBytes(res.cfg, ps), ps}); p.pageLen < poolMaxPagesTotal &&
		len(p.pages[k]) < poolMaxPartsPerKey {
		p.pages[k] = append(p.pages[k], res.pageCache)
		p.pageLen++
	}
	if k := (cacheKey{res.cfg.CMTBytes, ps}); p.cmtLen < poolMaxCMTsTotal &&
		len(p.cmts[k]) < poolMaxPartsPerKey {
		p.cmts[k] = append(p.cmts[k], res.cmt)
		p.cmtLen++
	}
	if k := (devKey{res.key.geo, res.cfg.FlashTiming}); p.devLen < poolMaxDevsTotal &&
		len(p.devs[k]) < poolMaxPartsPerKey {
		p.devs[k] = append(p.devs[k], devFTL{res.dev, res.ftl})
		p.devLen++
	}
}

// addSetup accounts one replay setup's wall-clock cost.
func (p *resourcePool) addSetup(ns int64) {
	p.mu.Lock()
	p.stats.SetupNs += ns
	p.mu.Unlock()
}

// SetPooling enables or disables replay-stack recycling. Pooling is on by
// default; the differential tests turn it off to force every setup down
// the allocation path. Disabling does not drop already-pooled stacks —
// call ResetPool for that.
func SetPooling(on bool) {
	pool.mu.Lock()
	pool.enabled = on
	pool.mu.Unlock()
}

// ResetPool drops every idle pooled stack and component and zeroes the
// pool counters.
func ResetPool() {
	pool.mu.Lock()
	pool.idle = make(map[poolKey][]*resources)
	pool.idleLen = 0
	pool.pages = make(map[cacheKey][]*dram.PageCache)
	pool.pageLen = 0
	pool.cmts = make(map[cacheKey][]*ftl.MappingCache)
	pool.cmtLen = 0
	pool.devs = make(map[devKey][]devFTL)
	pool.devLen = 0
	pool.stats = PoolStats{}
	pool.mu.Unlock()
}

// PoolSnapshot returns the pool activity counters.
func PoolSnapshot() PoolStats {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.stats
}
