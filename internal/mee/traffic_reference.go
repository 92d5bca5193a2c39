package mee

import (
	"iceclave/internal/cache"
	"iceclave/internal/sim"
)

// TrafficReference is the per-line, map-backed traffic model retained as
// the differential oracle for TrafficModel — the trivium.Reference pattern
// applied to the counter-cache simulation. It is the pre-batching
// implementation verbatim: one Access call per 64-byte line, Go maps for
// page permissions and minor counters, no run collapsing. TrafficModel's
// bulk APIs (AccessSeq, AccessMany) and its dense state must produce
// bit-identical TrafficStats, counter-cache statistics, and latency sums
// to this model on any access stream; the differential and fuzz tests in
// this package pin that contract. Keep this implementation boring: its
// value is that its correctness is obvious.
type TrafficReference struct {
	cfg      TrafficConfig
	meta     *cache.Cache     // shared metadata cache (counters, MACs, tree nodes)
	writable map[uint64]bool  // page index -> writable (default read-only)
	minors   map[uint64]uint8 // data line index -> write count within major epoch
	stats    TrafficStats
}

// NewTrafficReference builds the oracle from cfg, applying the same
// defaults NewTrafficModel does.
func NewTrafficReference(cfg TrafficConfig) *TrafficReference {
	cfg = cfg.withDefaults()
	return &TrafficReference{
		cfg:      cfg,
		meta:     cache.New("counter-cache", cfg.CounterCacheBytes, LineSize, 8),
		writable: make(map[uint64]bool),
		minors:   make(map[uint64]uint8),
	}
}

// Mode returns the protection scheme in effect.
func (t *TrafficReference) Mode() Mode { return t.cfg.Mode }

// Stats returns a copy of the traffic counters.
func (t *TrafficReference) Stats() TrafficStats { return t.stats }

// CounterCacheStats exposes the metadata cache's hit statistics.
func (t *TrafficReference) CounterCacheStats() cache.Stats { return t.meta.Stats() }

// SetPageWritable marks a page writable (true) or read-only (false).
func (t *TrafficReference) SetPageWritable(page uint64, w bool) {
	if w {
		t.writable[page] = true
	} else {
		delete(t.writable, page)
	}
}

// pageWritable reports whether a page currently takes the split-counter
// path. Under SC-64 every page does.
func (t *TrafficReference) pageWritable(page uint64) bool {
	if t.cfg.Mode == ModeSplit64 {
		return true
	}
	return t.writable[page]
}

// touchMeta accesses one metadata line through the counter cache and
// charges the extra traffic to enc (true) or ver (false) accounting.
func (t *TrafficReference) touchMeta(addr uint64, write, enc bool) (extra sim.Duration) {
	hit, ev, evicted := t.meta.Access(addr, write)
	if !hit {
		if enc {
			t.stats.EncExtraReads++
		} else {
			t.stats.VerExtraReads++
		}
		extra += t.cfg.DRAMLatency
	}
	if evicted && ev.Dirty {
		// Dirty metadata writeback: attribute by the evicted line's space.
		if ev.Addr >= macBase {
			t.stats.VerExtraWrites++
		} else {
			t.stats.EncExtraWrites++
		}
		extra += t.cfg.DRAMLatency
	}
	return extra
}

// counterLine returns the metadata address of the counter block covering
// page under the current scheme.
func (t *TrafficReference) counterLine(page uint64) uint64 {
	if t.cfg.Mode == ModeHybrid && !t.pageWritable(page) {
		// Major-only: 8 read-only pages share one counter line.
		return ctrBase + page/roPagesPerCounterLine*LineSize
	}
	// Split counters: one 64-byte counter line per 4 KB page.
	return ctrBase + page*LineSize
}

// treeWalk touches the BMT path above a counter line, stopping early on a
// cache hit the way a real verifier stops at a verified ancestor.
func (t *TrafficReference) treeWalk(ctrAddr uint64, write bool) (extra sim.Duration) {
	idx := (ctrAddr - ctrBase) / LineSize
	for level := 0; idx > 0 && level < 8; level++ {
		idx /= treeFanout
		nodeAddr := treeBase + uint64(level)<<36 + idx*LineSize
		hit, ev, evicted := t.meta.Access(nodeAddr, write)
		if evicted && ev.Dirty {
			t.stats.VerExtraWrites++
			extra += t.cfg.DRAMLatency
		}
		if hit && !write {
			break // verified ancestor found
		}
		if !hit {
			t.stats.VerExtraReads++
			extra += t.cfg.DRAMLatency
		}
	}
	return extra
}

// Access records one 64-byte data access and returns the extra latency the
// protection scheme adds to it — the per-line loop TrafficModel's bulk
// APIs are measured against.
func (t *TrafficReference) Access(addr uint64, write bool) (extra sim.Duration) {
	w := uint8(t.cfg.SampleWeight)
	if write {
		t.stats.DataWrites += int64(w)
	} else {
		t.stats.DataReads += int64(w)
	}
	if t.cfg.Mode == ModeNone {
		return 0
	}
	page := addr / PageSize
	line := addr / LineSize
	wrPage := t.pageWritable(page)

	// Counter fetch (encryption metadata).
	ctrAddr := t.counterLine(page)
	extra += t.touchMeta(ctrAddr, write, true)

	// Integrity tree walk over the counter space.
	extra += t.treeWalk(ctrAddr, write)

	// Line MACs: writable pages carry one 8-byte MAC per line (packed 8
	// per metadata line). Read-only pages under the hybrid scheme fold
	// verification into the counter tree at page granularity (Figure 7a),
	// so they need no per-line MAC fetch.
	if wrPage {
		macAddr := macBase + line/macsPerLine*LineSize
		extra += t.touchMeta(macAddr, write, false)
	}

	// Minor-counter overflow on writes: the 6-bit counter wraps after 63
	// bumps, forcing a page re-encryption (read+write every line).
	if write && wrPage {
		m := int(t.minors[line]) + int(w)
		for m >= MinorLimit-1 {
			m -= MinorLimit - 1
			t.stats.Reencryptions++
			t.stats.EncExtraReads += LinesPerPage
			t.stats.EncExtraWrites += LinesPerPage
			extra += sim.Duration(2*LinesPerPage) * t.cfg.DRAMLatency
			// Reset the page's minors.
			base := page * LinesPerPage
			for i := uint64(0); i < LinesPerPage; i++ {
				delete(t.minors, base+i)
			}
		}
		t.minors[line] = uint8(m)
	}

	// Exposed latency of the crypto units: the AES pad generation and MAC
	// check pipeline under DRAM access latency and stay hidden on
	// metadata hits; only accesses that had to fetch metadata expose the
	// Table 5 per-operation latency.
	if extra > 0 {
		if write {
			extra += t.cfg.EncryptLatency
		} else {
			extra += t.cfg.VerifyLatency
		}
	}
	return extra
}

// Reset clears all model state and statistics.
func (t *TrafficReference) Reset() {
	t.meta.Reset()
	t.writable = make(map[uint64]bool)
	t.minors = make(map[uint64]uint8)
	t.stats = TrafficStats{}
}
