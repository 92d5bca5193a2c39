// Package dram models the SSD controller's DRAM as a page-granular data
// cache that captures how much of an in-storage program's working set
// fits in controller memory (the quantity Figure 16 sweeps). A replay
// serves a resident page without a flash read; memory-line traffic is
// charged by the MEE and CPU models, not here.
//
// Concurrency contract: a PageCache carries residency state and is not
// safe for concurrent use; each replayed system owns one.
package dram

import "iceclave/internal/cache"

// PageCache models the portion of SSD DRAM that caches flash-page data for
// in-storage programs. Its capacity is what shrinks when the experiment
// halves DRAM from 4 GB to 2 GB (Figure 16).
type PageCache struct {
	c        *cache.Cache
	pageSize uint64
}

// NewPageCache builds a page cache of capacityBytes over flash pages of
// pageSize bytes.
func NewPageCache(capacityBytes, pageSize uint64) *PageCache {
	return &PageCache{c: cache.New("dram-pagecache", capacityBytes, pageSize, 8), pageSize: pageSize}
}

// Touch records an access to the flash page with index page, returning
// whether it was resident in DRAM.
func (pc *PageCache) Touch(page uint64, write bool) (hit bool) {
	hit, _, _ = pc.c.Access(page*pc.pageSize, write)
	return hit
}

// Evict removes the flash page from the cache if resident. The replay's
// fault path uses it to undo a Touch whose backing flash read then
// failed — the data never arrived, so the page must not be served from
// DRAM on the retry.
func (pc *PageCache) Evict(page uint64) { pc.c.Invalidate(page * pc.pageSize) }

// Stats returns hit/miss counters.
func (pc *PageCache) Stats() cache.Stats { return pc.c.Stats() }

// Capacity returns the cache capacity in bytes.
func (pc *PageCache) Capacity() uint64 { return pc.c.Capacity() }

// ResetStats clears counters while keeping residency.
func (pc *PageCache) ResetStats() { pc.c.ResetStats() }

// Reset empties the cache and zeroes its counters, returning it to the
// post-NewPageCache state. The underlying way arrays — half a million
// ways, 8 MB, for the default 2 GB cache, the dominant allocation of a
// fresh replay stack — are orphaned by moving the cache's start tick, not
// re-zeroed, so Reset is O(1) (part of the pool reset contract).
func (pc *PageCache) Reset() { pc.c.Reset() }
