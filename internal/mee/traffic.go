package mee

import (
	"iceclave/internal/cache"
	"iceclave/internal/sim"
)

// Mode selects the DRAM protection scheme for the traffic model, matching
// the three bars of Figure 8.
type Mode int

// Protection modes.
const (
	// ModeNone disables memory encryption and verification (the
	// "Non-Encryption" baseline, also what plain ISC runs).
	ModeNone Mode = iota
	// ModeSplit64 applies the state-of-the-art split-counter scheme
	// (SC-64) to every page.
	ModeSplit64
	// ModeHybrid is IceClave's scheme: major-only counters for read-only
	// pages, split counters for writable pages (paper §4.4).
	ModeHybrid
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "Non-Encryption"
	case ModeSplit64:
		return "SC-64"
	default:
		return "IceClave"
	}
}

// Metadata address-space bases. Counter blocks, line MACs, and tree nodes
// live in disjoint regions of a virtual metadata space so they contend for
// the counter cache realistically.
const (
	ctrBase  = uint64(1) << 40
	macBase  = uint64(1) << 41
	treeBase = uint64(1) << 42
)

// roPagesPerCounterLine is the Figure 7(a) packing: a 64-byte counter line
// holds eight 64-bit major counters, each covering one read-only 4 KB page.
const roPagesPerCounterLine = 8

// macsPerLine is the packing of 8-byte line MACs into a 64-byte line.
const macsPerLine = 8

// treeFanout is the arity of the Bonsai Merkle Tree over counter lines.
const treeFanout = 8

// TrafficConfig parameterizes the traffic model.
type TrafficConfig struct {
	Mode              Mode
	CounterCacheBytes uint64       // default 128 KB (paper §5)
	DRAMLatency       sim.Duration // cost charged per extra metadata access
	EncryptLatency    sim.Duration // pipeline latency per protected write (Table 5: 102.6 ns)
	VerifyLatency     sim.Duration // pipeline latency per protected read (Table 5: 151.2 ns)
	// SampleWeight declares that each Access call stands for this many
	// real accesses (trace sampling). Data counts and minor-counter
	// advancement scale by it; metadata miss events do not. That is exact
	// for compulsory misses, since a sampled stream still misses each
	// metadata line once, but not for capacity misses: a stream thinned
	// by the weight puts that much less pressure on the counter cache,
	// so a sampled run can under-count the misses of the full stream.
	SampleWeight int
}

// DefaultTrafficConfig returns the paper's parameters for the given mode.
func DefaultTrafficConfig(mode Mode) TrafficConfig {
	return TrafficConfig{
		Mode:              mode,
		CounterCacheBytes: 128 << 10,
		DRAMLatency:       30 * sim.Nanosecond,
		EncryptLatency:    103 * sim.Nanosecond, // Table 5: 102.6 ns, rounded to the ns tick
		VerifyLatency:     151 * sim.Nanosecond, // Table 5: 151.2 ns
	}
}

// withDefaults fills zero fields with the paper parameters for cfg.Mode.
func (cfg TrafficConfig) withDefaults() TrafficConfig {
	def := DefaultTrafficConfig(cfg.Mode)
	if cfg.CounterCacheBytes == 0 {
		cfg.CounterCacheBytes = def.CounterCacheBytes
	}
	if cfg.DRAMLatency == 0 {
		cfg.DRAMLatency = def.DRAMLatency
	}
	if cfg.EncryptLatency == 0 {
		cfg.EncryptLatency = def.EncryptLatency
	}
	if cfg.VerifyLatency == 0 {
		cfg.VerifyLatency = def.VerifyLatency
	}
	if cfg.SampleWeight < 1 {
		cfg.SampleWeight = 1
	}
	return cfg
}

// TrafficStats separates regular DRAM traffic from the extra accesses
// caused by encryption counters and by integrity metadata — the two
// columns of Table 6.
type TrafficStats struct {
	DataReads  int64
	DataWrites int64

	EncExtraReads  int64 // counter-block fetches
	EncExtraWrites int64 // counter writebacks + re-encryption traffic
	VerExtraReads  int64 // MAC and tree-node fetches
	VerExtraWrites int64 // MAC and tree-node writebacks

	Reencryptions int64 // minor-counter overflow events
}

// DataAccesses returns the regular traffic volume.
func (s TrafficStats) DataAccesses() int64 { return s.DataReads + s.DataWrites }

// EncryptionOverhead returns extra encryption traffic as a fraction of
// regular traffic (Table 6 "Encryption" column).
func (s TrafficStats) EncryptionOverhead() float64 {
	if s.DataAccesses() == 0 {
		return 0
	}
	return float64(s.EncExtraReads+s.EncExtraWrites) / float64(s.DataAccesses())
}

// VerificationOverhead returns extra integrity traffic as a fraction of
// regular traffic (Table 6 "Integrity Verification" column).
func (s TrafficStats) VerificationOverhead() float64 {
	if s.DataAccesses() == 0 {
		return 0
	}
	return float64(s.VerExtraReads+s.VerExtraWrites) / float64(s.DataAccesses())
}

// wrChunkPages is the page span of one writable-bitmap chunk: 1<<15 pages
// (128 MB of protected address space) per 4 KB chunk. The TEE heap and any
// one workload's input region each fit in one or two chunks, so the
// hot-path lookup is a memoized pointer chase, not a map probe.
const wrChunkPages = 1 << 15

type wrChunk [wrChunkPages / 64]uint64

// pageBitmap is the page-granular writability store: a sparse directory of
// dense bitmap chunks with a last-chunk memo. It replaces the
// map[uint64]bool of TrafficReference on the hot path.
type pageBitmap struct {
	chunks  map[uint64]*wrChunk
	lastIdx uint64
	last    *wrChunk // nil = chunk known absent (memoized negative)
	lastOk  bool
}

func (b *pageBitmap) init() {
	b.chunks = make(map[uint64]*wrChunk)
	b.lastOk = false
}

func (b *pageBitmap) lookup(page uint64) *wrChunk {
	ci := page / wrChunkPages
	if b.lastOk && ci == b.lastIdx {
		return b.last
	}
	c := b.chunks[ci]
	b.lastIdx, b.last, b.lastOk = ci, c, true
	return c
}

func (b *pageBitmap) get(page uint64) bool {
	c := b.lookup(page)
	if c == nil {
		return false
	}
	off := page % wrChunkPages
	return c[off/64]>>(off%64)&1 != 0
}

func (b *pageBitmap) set(page uint64, v bool) {
	c := b.lookup(page)
	if c == nil {
		if !v {
			return // clearing an absent page is a no-op
		}
		c = new(wrChunk)
		b.chunks[page/wrChunkPages] = c
		b.lastIdx, b.last, b.lastOk = page/wrChunkPages, c, true
	}
	off := page % wrChunkPages
	if v {
		c[off/64] |= 1 << (off % 64)
	} else {
		c[off/64] &^= 1 << (off % 64)
	}
}

// minorPage is the dense minor-counter store of one 4 KB page.
type minorPage [LinesPerPage]uint8

// minorStore maps pages to their minor-counter arrays with a last-page
// memo; a page re-encryption resets the whole array in one assignment
// instead of 64 map deletes.
type minorStore struct {
	pages   map[uint64]*minorPage
	lastIdx uint64
	last    *minorPage
}

func (m *minorStore) init() {
	m.pages = make(map[uint64]*minorPage)
	m.last = nil
}

// page returns page's minor array, creating it on first use.
func (m *minorStore) page(page uint64) *minorPage {
	if m.last != nil && m.lastIdx == page {
		return m.last
	}
	p := m.pages[page]
	if p == nil {
		p = new(minorPage)
		m.pages[page] = p
	}
	m.lastIdx, m.last = page, p
	return p
}

// TrafficModel is the statistical counter-cache simulation driven by the
// timing experiments. Feed it the stream of DRAM accesses an in-storage
// program makes; it simulates the 128 KB counter cache over counter
// blocks, line MACs, and tree nodes, and reports the extra traffic and
// latency the protection scheme costs.
//
// This is the batched production engine: page permissions live in a
// chunked bitmap, minor counters in dense per-page arrays, and the bulk
// entry points (AccessSeq for streaming scans, AccessMany for address
// batches) collapse the per-call overhead the per-line loop pays. Batch
// boundaries are invisible in the results: any way of slicing an access
// stream across Access/AccessSeq/AccessMany calls yields bit-identical
// TrafficStats, counter-cache statistics, and latency sums to the per-line
// TrafficReference oracle, pinned by the differential fuzz in this
// package.
type TrafficModel struct {
	cfg    TrafficConfig
	meta   *cache.Cache // shared metadata cache (counters, MACs, tree nodes)
	wr     pageBitmap   // page index -> writable (default read-only)
	minors minorStore   // page index -> per-line write counts within major epoch
	stats  TrafficStats
	steady [10]uint64 // scratch for the group fast path's metadata-line list
}

// NewTrafficModel builds a model from cfg, applying defaults for zero
// fields.
func NewTrafficModel(cfg TrafficConfig) *TrafficModel {
	cfg = cfg.withDefaults()
	t := &TrafficModel{
		cfg:  cfg,
		meta: cache.New("counter-cache", cfg.CounterCacheBytes, LineSize, 8),
	}
	t.wr.init()
	t.minors.init()
	return t
}

// Mode returns the protection scheme in effect.
func (t *TrafficModel) Mode() Mode { return t.cfg.Mode }

// Stats returns a copy of the traffic counters.
func (t *TrafficModel) Stats() TrafficStats { return t.stats }

// CounterCacheStats exposes the metadata cache's hit statistics.
func (t *TrafficModel) CounterCacheStats() cache.Stats { return t.meta.Stats() }

// SetPageWritable marks a page writable (true) or read-only (false). The
// paper's runtime marks input regions read-only and intermediate-data
// regions writable; transitions mid-run are allowed (§4.4 dynamic
// permission changes).
func (t *TrafficModel) SetPageWritable(page uint64, w bool) {
	t.wr.set(page, w)
}

// pageWritable reports whether a page currently takes the split-counter
// path. Under SC-64 every page does.
func (t *TrafficModel) pageWritable(page uint64) bool {
	if t.cfg.Mode == ModeSplit64 {
		return true
	}
	return t.wr.get(page)
}

// touchMeta accesses one metadata line through the counter cache and
// charges the extra traffic to enc (true) or ver (false) accounting.
func (t *TrafficModel) touchMeta(addr uint64, write, enc bool) (extra sim.Duration) {
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

// counterLineFor returns the metadata address of the counter block
// covering page, given its already-resolved writability.
func (t *TrafficModel) counterLineFor(page uint64, wrPage bool) uint64 {
	if t.cfg.Mode == ModeHybrid && !wrPage {
		// Major-only: 8 read-only pages share one counter line.
		return ctrBase + page/roPagesPerCounterLine*LineSize
	}
	// Split counters: one 64-byte counter line per 4 KB page.
	return ctrBase + page*LineSize
}

// treePath appends the BMT node addresses above ctrAddr — the full
// write-path walk, innermost level first. It is the single source of the
// tree geometry for both treeWalk (which may stop early on reads) and
// accessGroup's steady-set builder. buf should have capacity 8 (the level
// cap) so the append never escapes to the heap.
func treePath(ctrAddr uint64, buf []uint64) []uint64 {
	idx := (ctrAddr - ctrBase) / LineSize
	for level := 0; idx > 0 && level < 8; level++ {
		idx /= treeFanout
		buf = append(buf, treeBase+uint64(level)<<36+idx*LineSize)
	}
	return buf
}

// treeWalk touches the BMT path above a counter line, stopping early on a
// cache hit the way a real verifier stops at a verified ancestor.
func (t *TrafficModel) treeWalk(ctrAddr uint64, write bool) (extra sim.Duration) {
	var nodes [8]uint64
	for _, nodeAddr := range treePath(ctrAddr, nodes[:0]) {
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

// bumpMinor advances one line's minor counter by the sample weight and
// charges any re-encryption events (minor overflow: read+write every line
// of the page). The returned latency excludes the per-access crypto
// pipeline charge, which the caller adds once per access.
func (t *TrafficModel) bumpMinor(mp *minorPage, li uint64, w uint8) (extra sim.Duration) {
	m := int(mp[li]) + int(w)
	for m >= MinorLimit-1 {
		m -= MinorLimit - 1
		t.stats.Reencryptions++
		t.stats.EncExtraReads += LinesPerPage
		t.stats.EncExtraWrites += LinesPerPage
		extra += sim.Duration(2*LinesPerPage) * t.cfg.DRAMLatency
		*mp = minorPage{} // reset the page's minors
	}
	mp[li] = uint8(m)
	return extra
}

// Access records one 64-byte data access by the protected program and
// returns the extra latency the protection scheme adds to it. addr is the
// data address; write selects the encrypt (write-back) or verify (fill)
// path. Access is the single-probe form of the bulk APIs below.
func (t *TrafficModel) Access(addr uint64, write bool) sim.Duration {
	return t.accessOne(addr, write)
}

// accessOne is the full per-line path shared by Access, AccessMany, and
// the first probe of every AccessSeq group.
func (t *TrafficModel) accessOne(addr uint64, write bool) (extra sim.Duration) {
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
	wrPage := t.pageWritable(page)

	// Counter fetch (encryption metadata).
	ctrAddr := t.counterLineFor(page, wrPage)
	extra += t.touchMeta(ctrAddr, write, true)

	// Integrity tree walk over the counter space.
	extra += t.treeWalk(ctrAddr, write)

	// Line MACs: writable pages carry one 8-byte MAC per line (packed 8
	// per metadata line). Read-only pages under the hybrid scheme fold
	// verification into the counter tree at page granularity (Figure 7a),
	// so they need no per-line MAC fetch.
	line := addr / LineSize
	if wrPage {
		macAddr := macBase + line/macsPerLine*LineSize
		extra += t.touchMeta(macAddr, write, false)
	}

	if write && wrPage {
		extra += t.bumpMinor(t.minors.page(page), line%LinesPerPage, w)
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

// AccessSeq records n data accesses at base, base+stride, base+2*stride,
// ... — the streaming-scan bulk entry point (an input-page scan is
// AccessSeq(pageAddr, lines, false, LineSize); a sampled scan passes the
// sampling stride). A zero stride defaults to LineSize. The result is
// bit-identical to n Access calls: consecutive accesses that share one
// steady metadata-line set (same page, and same packed MAC line when the
// page takes the split-counter path) are settled as one full probe plus
// bulk cache.AccessRun touches for the guaranteed hits.
func (t *TrafficModel) AccessSeq(base uint64, n int64, write bool, stride uint64) sim.Duration {
	if n <= 0 {
		return 0
	}
	if stride == 0 {
		stride = LineSize
	}
	if t.cfg.Mode == ModeNone {
		w := int64(uint8(t.cfg.SampleWeight))
		if write {
			t.stats.DataWrites += n * w
		} else {
			t.stats.DataReads += n * w
		}
		return 0
	}
	var extra sim.Duration
	addr := base
	for n > 0 {
		k := t.groupLen(addr, stride, n)
		extra += t.accessGroup(addr, write, stride, k)
		addr += uint64(k) * stride
		n -= k
	}
	return extra
}

// AccessMany records one data access per address in addrs — the bulk
// entry point for scattered (heap) traffic. Equivalent to one Access call
// per element, in order.
func (t *TrafficModel) AccessMany(addrs []uint64, write bool) sim.Duration {
	var extra sim.Duration
	for _, a := range addrs {
		extra += t.accessOne(a, write)
	}
	return extra
}

// groupLen returns how many accesses of the strided stream starting at
// addr share one steady metadata-line set: they stay within one page, and
// — when the page takes the split-counter path — within one packed MAC
// line (8 data lines).
func (t *TrafficModel) groupLen(addr, stride uint64, n int64) int64 {
	span := uint64(PageSize) - addr%PageSize
	if t.pageWritable(addr / PageSize) {
		const macSpan = macsPerLine * LineSize
		if s := uint64(macSpan) - addr%macSpan; s < span {
			span = s
		}
	}
	k := int64((span + stride - 1) / stride)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// accessGroup replays k accesses sharing one steady metadata-line set.
// The first access runs the full per-line path. Every steady line is then
// resident (the first access just touched them, and hits never evict), so
// accesses 2..k are pure metadata hits: they are settled with one bulk
// AccessRun per steady line — in per-access touch order, so relative LRU
// order matches the interleaved per-line loop — plus the per-line
// minor-counter work for writes. If the first access evicted one of its
// own metadata lines (possible only on degenerate cache geometries where
// one access touches more lines than a set holds), the group falls back
// to the per-line loop.
func (t *TrafficModel) accessGroup(addr uint64, write bool, stride uint64, k int64) (extra sim.Duration) {
	extra = t.accessOne(addr, write)
	if k <= 1 {
		return extra
	}
	page := addr / PageSize
	wrPage := t.pageWritable(page)
	ctrAddr := t.counterLineFor(page, wrPage)

	// The steady metadata lines, in per-access touch order: counter line,
	// tree path (reads stop at the first — now verified — ancestor; writes
	// walk the full path), then the MAC line for split-counter pages.
	steady := t.steady[:0]
	steady = append(steady, ctrAddr)
	if write {
		steady = treePath(ctrAddr, steady)
	} else if path := treePath(ctrAddr, steady[1:]); len(path) > 0 {
		steady = steady[:2] // reads stop at the first (verified) ancestor
	}
	if wrPage {
		line := addr / LineSize
		steady = append(steady, macBase+line/macsPerLine*LineSize)
	}
	for _, a := range steady {
		if !t.meta.Contains(a) {
			for j := int64(1); j < k; j++ {
				extra += t.accessOne(addr+uint64(j)*stride, write)
			}
			return extra
		}
	}

	// Accesses 2..k: guaranteed hits on every steady line, charged in
	// bulk. Hits add no latency, so only write minors can add charges.
	for _, a := range steady {
		t.meta.AccessRun(a, write, k-1)
	}
	w := uint8(t.cfg.SampleWeight)
	if write {
		t.stats.DataWrites += (k - 1) * int64(w)
	} else {
		t.stats.DataReads += (k - 1) * int64(w)
	}
	if write && wrPage {
		mp := t.minors.page(page)
		for j := int64(1); j < k; j++ {
			li := ((addr + uint64(j)*stride) / LineSize) % LinesPerPage
			if e := t.bumpMinor(mp, li, w); e > 0 {
				extra += e + t.cfg.EncryptLatency
			}
		}
	}
	return extra
}

// Reset clears all model state and statistics.
func (t *TrafficModel) Reset() {
	t.meta.Reset()
	t.wr.init()
	t.minors.init()
	t.stats = TrafficStats{}
}
