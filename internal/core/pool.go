package core

import (
	"sync"

	"iceclave/internal/cpu"
	"iceclave/internal/dram"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/host"
)

// board is the part of a replay stack that depends on the flash geometry
// and timing alone: the device and the FTL over it, the CMT, the storage
// and host CPU complexes, and the PCIe link. Every other size a board has
// is a package constant, so two boards with equal keys are
// interchangeable once reset. The storage complex's core is the one
// Config value a board serves: it is a plain field, set at checkout.
type board struct {
	key     boardKey
	dev     *flash.Device
	ftl     *ftl.FTL
	cmt     *ftl.MappingCache
	storage *cpu.Complex
	hostCPU *cpu.Complex
	pcie    *host.PCIe
}

// boardKey identifies interchangeable boards.
type boardKey struct {
	geo    flash.Geometry
	timing flash.Timing
}

func newBoard(k boardKey) (*board, error) {
	dev, err := flash.NewDevice(k.geo, k.timing)
	if err != nil {
		return nil, err
	}
	return &board{
		key:     k,
		dev:     dev,
		ftl:     ftl.New(dev),
		cmt:     ftl.NewMappingCache(cmtBytes, uint64(k.geo.PageSize)),
		storage: cpu.NewComplex(cpu.CortexA72, StorageCores),
		hostCPU: cpu.NewComplex(cpu.HostI7, 1),
		pcie:    host.NewPCIe(host.DefaultPCIeConfig()),
	}, nil
}

// reset returns every part of a recycled board to its post-construction
// state — the reset contract of ARCHITECTURE.md: device page states,
// payloads, and erase bookkeeping; FTL mapping table, free pools, and
// in-flight markers; the CMT; the CPU and PCIe servers.
func (b *board) reset() {
	b.dev.Reset()
	b.ftl.Reset()
	b.cmt.Reset()
	b.storage.Reset()
	b.hostCPU.Reset()
	b.pcie.Reset()
}

// PoolStats is a snapshot of the resource pool's activity: how many
// replay set-ups recycled a board (Hits) versus built one (Misses), and
// the total wall-clock time spent in replay set-up (reset or
// construction, plus prepopulation). Misses also count set-ups performed
// while pooling was disabled.
type PoolStats struct {
	Hits    int64
	Misses  int64
	SetupNs int64
}

// resourcePool recycles the two expensive parts of a replay stack across
// runs: boards, keyed by geometry and timing, and page caches, keyed by
// capacity (the default one's way arrays are 8 MB). A run whose
// configuration differs from the last only in what its tenants do — MEE
// mode, mapping placement, core, admission, arrivals, faults — reuses
// both. Checked-out parts are owned exclusively by one run: the pool's
// mutex hands them over with a happens-before edge, so concurrent suite
// workers are race-free without any locking inside the parts
// themselves. Idle parts are reset on checkout, not release, so a
// recycled stack is provably fresh at the moment of use and the reset
// cost lands in the set-up accounting.
type resourcePool struct {
	mu      sync.Mutex
	boards  idle[boardKey, *board]
	pages   idle[uint64, *dram.PageCache]
	enabled bool
	stats   PoolStats
}

// Idle caps: per key, so one workload's repeats cannot crowd out the
// rest, and per kind, so a long run cannot pin unbounded idle memory.
const (
	poolMaxIdlePerKey = 2
	poolMaxBoards     = 16
	poolMaxPageCaches = 8
)

var pool = resourcePool{
	boards:  idle[boardKey, *board]{max: poolMaxBoards},
	pages:   idle[uint64, *dram.PageCache]{max: poolMaxPageCaches},
	enabled: true,
}

// idle holds the idle parts of one kind: at most poolMaxIdlePerKey per
// key and max in all. The caller holds the pool's mutex.
type idle[K comparable, V any] struct {
	byKey map[K][]V
	n     int
	max   int
}

// take pops an idle part for k, or returns the zero V when none is idle.
func (l *idle[K, V]) take(k K) V {
	var zero V
	list := l.byKey[k]
	if len(list) == 0 {
		return zero
	}
	v := list[len(list)-1]
	list[len(list)-1] = zero
	l.byKey[k] = list[:len(list)-1] // keep the array for the next put
	l.n--
	return v
}

// put keeps v for reuse under k unless a cap is reached, in which case v
// is left to the garbage collector.
func (l *idle[K, V]) put(k K, v V) {
	if l.n >= l.max || len(l.byKey[k]) >= poolMaxIdlePerKey {
		return
	}
	if l.byKey == nil {
		l.byKey = make(map[K][]V)
	}
	l.byKey[k] = append(l.byKey[k], v)
	l.n++
}

// empty drops every idle part.
func (l *idle[K, V]) empty() {
	l.byKey = nil
	l.n = 0
}

// checkout pops an idle board and page cache for the keys; each is nil
// when the caller must build it (none idle, or pooling disabled). The
// set-up counts as a hit when the board was recycled.
func (p *resourcePool) checkout(bk boardKey, pageCacheBytes uint64) (*board, *dram.PageCache) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.enabled {
		p.stats.Misses++
		return nil, nil
	}
	b := p.boards.take(bk)
	if b != nil {
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	return b, p.pages.take(pageCacheBytes)
}

// release returns a finished run's board and page cache to the pool.
// Whatever exceeds a cap is dropped for the garbage collector.
func (p *resourcePool) release(res *resources) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.enabled {
		p.boards.put(res.board.key, res.board)
		p.pages.put(res.pageCache.Capacity(), res.pageCache)
	}
}

// addSetup accounts one replay set-up's wall-clock cost.
func (p *resourcePool) addSetup(ns int64) {
	p.mu.Lock()
	p.stats.SetupNs += ns
	p.mu.Unlock()
}

// SetPooling enables or disables replay-stack recycling. Pooling is on by
// default; the differential tests turn it off to force every set-up down
// the allocation path. Disabling does not drop already-pooled parts —
// call ResetPool for that.
func SetPooling(on bool) {
	pool.mu.Lock()
	pool.enabled = on
	pool.mu.Unlock()
}

// ResetPool drops every idle board and page cache and zeroes the pool
// counters.
func ResetPool() {
	pool.mu.Lock()
	pool.boards.empty()
	pool.pages.empty()
	pool.stats = PoolStats{}
	pool.mu.Unlock()
}

// PoolSnapshot returns the pool activity counters.
func PoolSnapshot() PoolStats {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.stats
}
