// Package ftl implements the flash translation layer of the IceClave SSD
// model: page-level logical-to-physical mapping with per-entry TEE ID bits
// (paper §4.3), out-of-place writes striped across channels, greedy garbage
// collection, wear-aware block allocation, and a demand-cached mapping
// table (CMT) in the DFTL style that IceClave places in the protected
// memory region (paper §4.2).
//
// Concurrency contract: FTL is safe for concurrent use. One mutex guards
// all of its state and is held across every call into the flash.Device
// below, which has no lock of its own: the FTL owns the device and
// serializes it (see the FTL type comment and ARCHITECTURE.md).
// MappingCache is not safe for concurrent use and is serialized by its
// owner (the tee.Runtime lock).
package ftl

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// LPA is a logical page address: the page index in the linear logical
// space exposed to hosts and in-storage programs.
type LPA uint32

// TEEID identifies the in-storage TEE owning a mapping entry. The paper
// uses 4 ID bits per 8-byte entry (6.25% table overhead); IDNone marks
// entries not owned by any TEE.
type TEEID uint8

// MaxTEEID is the largest representable owner ID (4 bits).
const MaxTEEID TEEID = 15

// IDNone marks an entry with no TEE owner; such pages are accessible only
// through the secure world (host I/O path).
const IDNone TEEID = 0

// entry packs a mapping-table entry the way the paper describes its 8-byte
// entries: physical page address, 4 ID bits, and a valid bit. dirty is
// bookkeeping outside the paper's format: it marks entries that have
// diverged from the zero value since construction (mapping, ID bits, or
// both), so Reset clears only those instead of sweeping the whole table.
type entry struct {
	ppa   flash.PPA
	id    TEEID
	valid bool
	dirty bool
}

// ErrUnmapped is returned when reading an LPA that was never written.
var ErrUnmapped = errors.New("ftl: unmapped LPA")

// ErrAccessDenied is returned when a TEE touches an entry it does not own.
var ErrAccessDenied = errors.New("ftl: mapping entry access denied")

// ErrDeviceFull is returned when no live die of the target channel has a
// free page, even after GC.
var ErrDeviceFull = errors.New("ftl: device full")

// ErrOwned is returned by ClaimID when the entry already carries a
// different TEE's ID bits — the ownership-aware creation path refuses to
// re-stamp a live owner.
var ErrOwned = errors.New("ftl: mapping entry already owned")

// FTL policy.
const (
	// overProvision is the fraction of raw capacity hidden from the
	// logical space and kept for GC headroom.
	overProvision = 0.125
	// gcFreeBlockLow is the per-channel free-block threshold that triggers
	// garbage collection.
	gcFreeBlockLow = 2
	// defaultWearDelta is the max allowed spread between block erase
	// counts before allocation steers to the least-worn candidates.
	defaultWearDelta = 8
	// readRetries bounds how many times a read failing with
	// flash.ErrTransientRead is reissued before the error surfaces.
	readRetries = 3
	// programRetries bounds how many times a failed program is retried on
	// a fresh block (after retiring the bad block or dead die) before the
	// error surfaces.
	programRetries = 3
)

// Stats aggregates FTL activity.
type Stats struct {
	HostWrites   int64 // pages written by callers
	GCWrites     int64 // pages moved by garbage collection
	GCRuns       int64
	Erases       int64
	Translations int64
	ReadRetries  int64 // transient read failures reissued
	ProgramFails int64 // program failures recovered by retrying elsewhere
	BadBlocks    int64 // blocks retired since construction or Reset
	DeadDies     int64 // dies marked dead since construction or Reset
}

// WriteAmplification returns (host + GC writes) / host writes.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.HostWrites+s.GCWrites) / float64(s.HostWrites)
}

// poolBlock is one free-pool entry: a block and its erase count. The
// count is frozen while the block waits in the pool — only GC erases, and
// GC never picks a pooled block — so wear-aware allocation reads it here
// instead of asking the device once per pooled block.
type poolBlock struct {
	b      flash.BlockID
	erases int32
}

// dieState tracks one die's free-block pool and active (partially
// programmed) block within a channel.
type dieState struct {
	freeBlocks  []poolBlock
	activeBlock flash.BlockID
	nextPage    int // next free page index within activeBlock
	hasActive   bool
	// dead marks a die that failed permanently (flash.ErrDieDead): the
	// allocator skips it and GC never picks its blocks, so the channel
	// degrades to its surviving dies instead of erroring out.
	dead bool
}

// channelState is one channel's allocator: the die allocators, the
// round-robin cursor that spreads consecutive writes across dies (so both
// reads and programs exploit die-level parallelism behind one channel
// bus), and the channel's block journals and wear-scan scratch.
type channelState struct {
	dies []dieState
	rr   int
	// usedList holds this channel's blocks ever taken from a free pool
	// (see FTL.usedBlocks), in first-use order.
	usedList []flash.BlockID
	// badList holds this channel's retired blocks (see FTL.bad), in
	// retirement order — the bad-block table's Reset journal.
	badList []flash.BlockID
	// wearStale marks pool erase counts that predate a construction or
	// Reset (the device may be reset after the FTL); the channel's next
	// allocation reloads them with one device call.
	wearStale bool
	// erase, valid, and skip are scratch for the channel's wear scans,
	// indexed by channel-local block and reused so a GC pass allocates
	// nothing: the device's erase and valid-page counts, and the blocks a
	// victim scan must pass over (pooled or active).
	erase, valid []int32
	skip         []bool
}

// freeTotal counts the pooled free blocks the allocator can actually
// use: dead dies' pools are unreachable, so they do not count.
func (cs *channelState) freeTotal() int {
	n := 0
	for i := range cs.dies {
		if cs.dies[i].dead {
			continue
		}
		n += len(cs.dies[i].freeBlocks)
	}
	return n
}

// FTL is the flash translation layer. It owns the device's block
// allocation, the logical-to-physical mapping table, and the TEE ID bits.
//
// FTL is safe for concurrent use: mu guards every field below it and is
// held across each device call an operation makes, so the device sees
// one caller at a time. Readers hold mu from translation through the
// device read, so GC cannot relocate the page in between and the PPA the
// stream-cipher IV binds to is pinned. One lock costs the simulated
// device nothing: die and bus time are sim.Server reservations in
// virtual time, so programs to different dies of one channel overlap in
// simulated time whatever order callers take mu in.
type FTL struct {
	dev *flash.Device
	geo flash.Geometry
	// wearDelta is defaultWearDelta; tests narrow it so the least-worn
	// allocation branch fires on a short write stream.
	wearDelta int

	logicalPages     int64
	blocksPerChannel int64
	blocksPerDie     int64

	mu    sync.Mutex
	table []entry
	// dirty lists the table entries that have diverged from the zero
	// value, in first-dirty order: the mapping table's Reset journal, so a
	// reset costs O(entries written), not O(logical pages).
	dirty   []LPA
	reverse []LPA // PPA -> LPA for GC
	chans   []channelState
	// usedBlocks[b] marks blocks ever taken from a free pool — only their
	// reverse-map slots can have diverged from fresh. The per-channel
	// usedList drives Reset.
	usedBlocks []bool
	// bad[b] marks retired blocks: a program on b failed permanently, so
	// the allocator never re-activates it and GC never erases it. Valid
	// pages already on a bad block stay readable (read-only retirement).
	// The per-channel badList drives Reset.
	bad   []bool
	stats Stats
}

// freePickHook and victimHook, when non-nil, observe each allocator
// decision under mu before it is acted on: the index allocate takes from
// die's free pool, and the block pickVictim chose (ok false: none). Tests
// check both against a per-block reference.
var (
	freePickHook func(ch, die, idx int)
	victimHook   func(ch int, victim flash.BlockID, ok bool)
)

// releaseHook, when non-nil, observes each mapping entry ReleaseIDs
// visits, under mu. Tests count the visits to pin that teardown touches
// the released list only, never the whole table.
var releaseHook func(l LPA)

// invalidLPA marks an unused reverse-map slot.
const invalidLPA = ^LPA(0)

// New builds an FTL over dev. Every block starts free.
func New(dev *flash.Device) *FTL {
	geo := dev.Geometry()
	logical := int64(float64(geo.TotalPages()) * (1 - overProvision))
	f := &FTL{
		dev:          dev,
		geo:          geo,
		wearDelta:    defaultWearDelta,
		table:        make([]entry, logical),
		reverse:      make([]LPA, geo.TotalPages()),
		chans:        make([]channelState, geo.Channels),
		usedBlocks:   make([]bool, geo.TotalBlocks()),
		bad:          make([]bool, geo.TotalBlocks()),
		logicalPages: logical,
		// A channel's blocks are one contiguous BlockID range, and within
		// it each die's blocks are contiguous too.
		blocksPerChannel: geo.BlocksPerChannel(),
		blocksPerDie:     int64(geo.PlanesPerDie) * int64(geo.BlocksPerPlane),
	}
	for i := range f.reverse {
		f.reverse[i] = invalidLPA
	}
	for ch := range f.chans {
		cs := &f.chans[ch]
		cs.dies = make([]dieState, geo.DiesPerChannel())
		cs.erase = make([]int32, f.blocksPerChannel)
		cs.valid = make([]int32, f.blocksPerChannel)
		cs.skip = make([]bool, f.blocksPerChannel)
	}
	f.distributeBlocks()
	return f
}

// distributeBlocks fills every die's free-block pool with the full block
// population in ascending BlockID order — the allocation order New
// establishes, reproduced exactly on Reset so a recycled FTL allocates
// block-for-block like a fresh one. Pool slices are reused in place. The
// pool erase counts are marked stale and loaded on each channel's first
// allocation, so the FTL and device may be reset in either order.
func (f *FTL) distributeBlocks() {
	for ch := range f.chans {
		cs := &f.chans[ch]
		cs.wearStale = true
		b := f.firstBlock(ch)
		for i := range cs.dies {
			ds := &cs.dies[i]
			ds.freeBlocks = ds.freeBlocks[:0]
			for end := b + flash.BlockID(f.blocksPerDie); b < end; b++ {
				ds.freeBlocks = append(ds.freeBlocks, poolBlock{b: b})
			}
		}
	}
}

// loadPoolWear reads ch's erase counts from the device in one call and
// stamps them into every pool entry. Caller holds mu.
func (f *FTL) loadPoolWear(ch int) {
	cs := &f.chans[ch]
	f.dev.ChannelWear(ch, cs.erase, nil)
	base := f.firstBlock(ch)
	for i := range cs.dies {
		pool := cs.dies[i].freeBlocks
		for j := range pool {
			pool[j].erases = cs.erase[pool[j].b-base]
		}
	}
	cs.wearStale = false
}

// LogicalPages returns the number of LPAs exposed.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// Device returns the underlying flash device. Its Geometry, Timing, and
// Snapshot are always safe to read; any other call must not run
// concurrently with an FTL operation (a replay that owns its whole stack
// calls the device directly from its one goroutine).
func (f *FTL) Device() *flash.Device { return f.dev }

// Stats returns a snapshot of the activity counters.
func (f *FTL) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FTL) checkLPA(l LPA) error {
	if int64(l) >= f.logicalPages {
		return fmt.Errorf("ftl: LPA %d out of range (%d logical pages)", l, f.logicalPages)
	}
	return nil
}

// Translate returns the physical page backing l. It does not check ID
// bits; use TranslateFor on the TEE path.
func (f *FTL) Translate(l LPA) (flash.PPA, error) {
	if err := f.checkLPA(l); err != nil {
		return flash.InvalidPPA, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Translations++
	e := f.table[l]
	if !e.valid {
		return flash.InvalidPPA, ErrUnmapped
	}
	return e.ppa, nil
}

// TranslateFor is the permission-checked translation used by in-storage
// TEEs reading the shared mapping table: the entry's ID bits must match the
// caller's TEE ID (paper §4.3).
func (f *FTL) TranslateFor(l LPA, id TEEID) (flash.PPA, error) {
	if err := f.checkLPA(l); err != nil {
		return flash.InvalidPPA, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Translations++
	e := f.table[l]
	if !e.valid {
		return flash.InvalidPPA, ErrUnmapped
	}
	if e.id != id {
		return flash.InvalidPPA, fmt.Errorf("%w: LPA %d owned by ID %d, caller ID %d", ErrAccessDenied, l, e.id, id)
	}
	return e.ppa, nil
}

// IDOf returns the TEE ID bits of l's entry.
func (f *FTL) IDOf(l LPA) (TEEID, error) {
	if err := f.checkLPA(l); err != nil {
		return IDNone, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.table[l].id, nil
}

// ClaimID stamps id into l's entry only if the entry is unowned (or
// already carries id) — the check and the stamp are atomic under mu, so
// two TEEs racing to claim one LPA cannot both win. This is the FTL half
// of the runtime's SetIDBits API and runs in the secure world. The FTL
// keeps no per-ID record of its stamps: the runtime lists every page it
// stamps and hands that list to ReleaseIDs at teardown, so any other
// caller of ClaimID must release its own stamps the same way.
func (f *FTL) ClaimID(l LPA, id TEEID) error {
	if err := f.checkLPA(l); err != nil {
		return err
	}
	if id > MaxTEEID {
		return fmt.Errorf("ftl: TEE ID %d exceeds 4 bits", id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur := f.table[l].id; cur != IDNone && cur != id {
		return fmt.Errorf("%w: LPA %d held by ID %d", ErrOwned, l, cur)
	}
	f.markDirty(l)
	f.table[l].id = id
	return nil
}

// ReleaseIDs resets the ID bits of the listed entries back to IDNone,
// used when a TEE terminates and its ID is recycled: lpas is the list of
// pages the TEE was stamped on. An entry is cleared only if it still
// carries id, so an entry another TEE has since re-stamped keeps its
// owner; out-of-range LPAs are skipped. The cost is O(len(lpas)), never
// O(logical pages), under one acquisition of mu.
func (f *FTL) ReleaseIDs(id TEEID, lpas []LPA) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range lpas {
		if int64(l) >= f.logicalPages {
			continue
		}
		if releaseHook != nil {
			releaseHook(l)
		}
		if f.table[l].id == id {
			f.table[l].id = IDNone
		}
	}
}

// readRetry issues a device read, reissuing up to readRetries times on
// flash.ErrTransientRead; each retry starts at the failed attempt's
// completion time, so the retry latency lands on the virtual clock. Any
// other error (including flash.ErrDieDead) surfaces immediately. Caller
// holds mu.
func (f *FTL) readRetry(at sim.Time, ppa flash.PPA) (done sim.Time, data []byte, err error) {
	done, data, err = f.dev.Read(at, ppa)
	for r := 0; r < readRetries && errors.Is(err, flash.ErrTransientRead); r++ {
		f.stats.ReadRetries++
		done, data, err = f.dev.Read(done, ppa)
	}
	return done, data, err
}

// Read translates and reads l, returning the completion time and payload.
// Transient read faults are retried up to readRetries times before
// surfacing.
func (f *FTL) Read(at sim.Time, l LPA) (done sim.Time, data []byte, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Translations++
	e := f.table[l]
	if !e.valid {
		return at, nil, ErrUnmapped
	}
	return f.readRetry(at, e.ppa)
}

// ReadFor is the TEE data-path read: the permission-checked translation of
// TranslateFor fused with the device read, so the returned payload and PPA
// (which binds the stream-cipher IV) are consistent even while other
// tenants write and trigger GC relocation. The ownership re-check does
// not count as a translation — the runtime already charged one through
// ReadMappingEntry; this is the same lookup revalidated at use time.
func (f *FTL) ReadFor(at sim.Time, l LPA, id TEEID) (done sim.Time, ppa flash.PPA, data []byte, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, flash.InvalidPPA, nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.table[l]
	if !e.valid {
		return at, flash.InvalidPPA, nil, ErrUnmapped
	}
	if e.id != id {
		return at, flash.InvalidPPA, nil,
			fmt.Errorf("%w: LPA %d owned by ID %d, caller ID %d", ErrAccessDenied, l, e.id, id)
	}
	done, data, err = f.readRetry(at, e.ppa)
	return done, e.ppa, data, err
}

// Write performs an out-of-place write of l: it allocates a fresh page
// (running GC first if the target channel is short on free blocks),
// programs it, invalidates the old page, and updates the mapping. The ID
// bits of the entry are preserved across rewrites.
//
// A program failing with flash.ErrProgramFail retires the block to the
// bad-block table and retries the write on a fresh block (up to
// programRetries times, each attempt starting at the failed one's
// completion time); flash.ErrDieDead retires the whole die the same way.
func (f *FTL) Write(at sim.Time, l LPA, data []byte) (done sim.Time, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.write(at, l, data)
}

// WriteFor is the TEE data-path write: the §4.3 ownership check, the
// write, and the ID stamping of a newly adopted page happen under one
// acquisition of mu, so two TEEs racing on an unowned LPA cannot both
// claim it. owner reports the entry's owner before the write; adopted
// reports whether the entry was unowned and has been stamped with id. A
// denied write touches no flash.
func (f *FTL) WriteFor(at sim.Time, l LPA, data []byte, id TEEID) (done sim.Time, owner TEEID, adopted bool, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, IDNone, false, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	owner = f.table[l].id
	if owner != id && owner != IDNone {
		return at, owner, false, fmt.Errorf("%w: LPA %d owned by %d", ErrAccessDenied, l, owner)
	}
	if done, err = f.write(at, l, data); err != nil {
		return done, owner, false, err
	}
	if owner == IDNone {
		f.table[l].id = id
		adopted = true
	}
	return done, owner, adopted, nil
}

// write is the write path Write and WriteFor share: GC if l's channel is
// short on free blocks, allocate a page, program it, and remap l to it,
// recovering from program faults. Caller holds mu.
func (f *FTL) write(at sim.Time, l LPA, data []byte) (sim.Time, error) {
	ch := f.pickChannel(l)
	for attempt := 0; ; attempt++ {
		issueAt, err := f.ensureFree(at, ch)
		if err != nil {
			return at, err
		}
		ppa, err := f.allocate(ch)
		if err != nil {
			return at, err
		}
		done, err := f.dev.Program(issueAt, ppa, data)
		if err != nil {
			if !f.recoverProgram(err, ch, ppa, attempt) {
				return at, err
			}
			at = done
			continue
		}
		return done, f.remap(l, ppa)
	}
}

// recoverProgram classifies a failed program of ppa on channel ch, for
// the write path and GC relocation alike. For the two recoverable fault
// classes it retires the faulty unit (the block for a program failure,
// the whole die for a die death) and reports true: the caller allocates
// again and retries from the failed attempt's completion time. Any other
// error, or an exhausted retry budget, reports false. Caller holds mu.
func (f *FTL) recoverProgram(err error, ch int, ppa flash.PPA, attempt int) bool {
	if attempt >= programRetries {
		return false
	}
	cs := &f.chans[ch]
	b := f.geo.BlockOf(ppa)
	switch {
	case errors.Is(err, flash.ErrProgramFail):
		f.stats.ProgramFails++
		f.retire(cs, b)
	case errors.Is(err, flash.ErrDieDead):
		f.killDie(cs, f.dieOf(b))
	default:
		return false
	}
	return true
}

// retire moves b to the bad-block table: the allocator drops it as an
// active block and GC never selects it again. Valid pages already on b
// remain mapped and readable. cs is b's channel; caller holds mu.
func (f *FTL) retire(cs *channelState, b flash.BlockID) {
	if f.bad[b] {
		return
	}
	f.bad[b] = true
	cs.badList = append(cs.badList, b)
	f.stats.BadBlocks++
	ds := &cs.dies[f.dieOf(b)]
	if ds.hasActive && ds.activeBlock == b {
		ds.hasActive = false
	}
}

// killDie marks a die permanently dead: the allocator skips it, its free
// pool stops counting toward freeTotal, and GC never picks its blocks. cs
// is the die's channel; caller holds mu.
func (f *FTL) killDie(cs *channelState, die int) {
	ds := &cs.dies[die]
	if ds.dead {
		return
	}
	ds.dead = true
	ds.hasActive = false
	f.stats.DeadDies++
}

// markDirty records that l's table entry has diverged from the zero
// value, entering it in the reset journal once. Caller holds mu.
func (f *FTL) markDirty(l LPA) {
	if !f.table[l].dirty {
		f.table[l].dirty = true
		f.dirty = append(f.dirty, l)
	}
}

// remap points l at its freshly programmed page, keeping its ID bits,
// and retires the old page. Caller holds mu.
func (f *FTL) remap(l LPA, ppa flash.PPA) error {
	old := f.table[l]
	if old.valid {
		if err := f.dev.Invalidate(old.ppa); err != nil {
			return err
		}
		f.reverse[old.ppa] = invalidLPA
	}
	f.markDirty(l)
	f.table[l] = entry{ppa: ppa, id: old.id, valid: true, dirty: true}
	f.reverse[ppa] = l
	f.stats.HostWrites++
	return nil
}

// pickChannel spreads logical pages across channels for parallelism. It
// is static: an LPA's pages live on one channel forever, so GC relocates
// within the channel it collects.
func (f *FTL) pickChannel(l LPA) int { return int(uint32(l) % uint32(f.geo.Channels)) }

// allocate hands out the next free page in ch, round-robining across the
// channel's dies so consecutive writes stripe over die-level parallelism.
// Within a die, allocation prefers the least-worn free block once wear
// spread exceeds wearDelta. It reports ErrDeviceFull only when no live die
// of ch has a free page in its active block or its pool. Caller holds mu.
func (f *FTL) allocate(ch int) (flash.PPA, error) {
	cs := &f.chans[ch]
	n := len(cs.dies)
	for tries := 0; tries < n; tries++ {
		die := cs.rr % n
		ds := &cs.dies[die]
		cs.rr++
		if ds.dead {
			continue
		}
		if !ds.hasActive || ds.nextPage >= f.geo.PagesPerBlock {
			if len(ds.freeBlocks) == 0 {
				continue // die exhausted; try the next one
			}
			if cs.wearStale {
				f.loadPoolWear(ch)
			}
			idx := f.pickFreeBlock(ds)
			if freePickHook != nil {
				freePickHook(ch, die, idx)
			}
			ds.activeBlock = ds.freeBlocks[idx].b
			ds.freeBlocks = append(ds.freeBlocks[:idx], ds.freeBlocks[idx+1:]...)
			ds.nextPage = 0
			ds.hasActive = true
			if !f.usedBlocks[ds.activeBlock] {
				f.usedBlocks[ds.activeBlock] = true
				cs.usedList = append(cs.usedList, ds.activeBlock)
			}
		}
		ppa := f.geo.FirstPage(ds.activeBlock) + flash.PPA(ds.nextPage)
		ds.nextPage++
		return ppa, nil
	}
	return flash.InvalidPPA, ErrDeviceFull
}

// pickFreeBlock implements the wear-leveling allocation policy: normally
// FIFO, but when the erase-count spread across the die's free pool
// exceeds wearDelta, pick the least-worn block so cold blocks absorb new
// writes. The counts come from the pool entries, so the scan makes no
// device call. Caller holds mu.
func (f *FTL) pickFreeBlock(ds *dieState) int {
	minIdx, minE, maxE := 0, int32(math.MaxInt32), int32(0)
	for i, pb := range ds.freeBlocks {
		if pb.erases < minE {
			minE, minIdx = pb.erases, i
		}
		if pb.erases > maxE {
			maxE = pb.erases
		}
	}
	if int(maxE-minE) > f.wearDelta {
		return minIdx
	}
	return 0
}

// ensureFree runs garbage collection on ch until its free pool is above
// the low-water mark or no further space can be reclaimed. An empty pool
// is not a full device — the dies' active blocks may still have free
// pages — so it leaves that verdict to allocate. Caller holds mu.
func (f *FTL) ensureFree(at sim.Time, ch int) (sim.Time, error) {
	for f.chans[ch].freeTotal() < gcFreeBlockLow {
		done, reclaimed, err := f.collectChannel(at, ch)
		if err != nil || !reclaimed {
			return at, err
		}
		at = done
	}
	return at, nil
}

// collectChannel performs one greedy GC pass on ch: pick the non-free,
// non-active block with the fewest valid pages, relocate them, erase it.
// Caller holds mu.
func (f *FTL) collectChannel(at sim.Time, ch int) (done sim.Time, reclaimed bool, err error) {
	victim, erases, ok := f.pickVictim(ch)
	if victimHook != nil {
		victimHook(ch, victim, ok)
	}
	if !ok {
		return at, false, nil
	}
	f.stats.GCRuns++
	// Relocate live pages.
	first := f.geo.FirstPage(victim)
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		src := first + flash.PPA(i)
		if f.dev.State(src) != flash.PageValid {
			continue
		}
		l := f.reverse[src]
		if l == invalidLPA {
			return at, false, fmt.Errorf("ftl: valid page %d with no reverse mapping", src)
		}
		at, err = f.relocate(at, src, l, ch)
		if err != nil {
			return at, false, err
		}
	}
	done, err = f.dev.Erase(at, victim)
	if err != nil {
		if errors.Is(err, flash.ErrDieDead) {
			// The die died under the erase: retire it and report "nothing
			// reclaimed" instead of failing the write that triggered GC —
			// the caller degrades to the surviving dies.
			f.killDie(&f.chans[ch], f.dieOf(victim))
			return at, false, nil
		}
		return at, false, err
	}
	f.stats.Erases++
	ds := &f.chans[ch].dies[f.dieOf(victim)]
	ds.freeBlocks = append(ds.freeBlocks, poolBlock{b: victim, erases: erases + 1})
	return done, true, nil
}

// relocate moves one live page (src, mapped by l) to a fresh page on the
// same channel, with the write path's program-fault recovery. Caller
// holds mu.
func (f *FTL) relocate(at sim.Time, src flash.PPA, l LPA, ch int) (sim.Time, error) {
	readDone, data, err := f.readRetry(at, src)
	if err != nil {
		return at, err
	}
	for attempt := 0; ; attempt++ {
		dst, err := f.allocate(ch)
		if err != nil {
			return at, err
		}
		progDone, err := f.dev.Program(readDone, dst, data)
		if err != nil {
			if !f.recoverProgram(err, ch, dst, attempt) {
				return at, err
			}
			readDone = progDone
			continue
		}
		if err := f.dev.Invalidate(src); err != nil {
			return at, err
		}
		f.reverse[src] = invalidLPA
		f.reverse[dst] = l
		f.table[l].ppa = dst
		f.stats.GCWrites++
		return progDone, nil
	}
}

// dieOf returns the channel-local die index of a block.
func (f *FTL) dieOf(b flash.BlockID) int {
	return int(int64(b) % f.blocksPerChannel / f.blocksPerDie)
}

// firstBlock returns the first BlockID of channel ch's contiguous range.
func (f *FTL) firstBlock(ch int) flash.BlockID {
	return flash.BlockID(int64(ch) * f.blocksPerChannel)
}

// pickVictim selects the channel's fullest-of-invalid block: the non-free,
// non-active block with the fewest valid pages, requiring at least one
// invalid page so the erase reclaims space. Ties break toward the
// least-erased block, which rotates erases evenly across the channel
// instead of hammering the lowest-numbered fully-invalid block. It
// reports the victim's erase count too. The scan walks only ch's BlockID
// range, reading its wear with one device call. Caller holds mu.
func (f *FTL) pickVictim(ch int) (flash.BlockID, int32, bool) {
	cs := &f.chans[ch]
	base := f.firstBlock(ch)
	clear(cs.skip)
	for i := range cs.dies {
		ds := &cs.dies[i]
		for _, pb := range ds.freeBlocks {
			cs.skip[pb.b-base] = true
		}
		if ds.hasActive {
			cs.skip[ds.activeBlock-base] = true
		}
	}
	f.dev.ChannelWear(ch, cs.erase, cs.valid)
	best := flash.BlockID(-1)
	bestValid := int32(f.geo.PagesPerBlock) + 1
	bestErase := int32(math.MaxInt32)
	for die := range cs.dies {
		if cs.dies[die].dead {
			continue
		}
		for i := int64(die) * f.blocksPerDie; i < int64(die+1)*f.blocksPerDie; i++ {
			b := base + flash.BlockID(i)
			if cs.skip[i] || f.bad[b] {
				continue
			}
			valid := cs.valid[i]
			if valid >= int32(f.geo.PagesPerBlock) { // nothing reclaimable
				continue
			}
			if erase := cs.erase[i]; valid < bestValid || (valid == bestValid && erase < bestErase) {
				best, bestValid, bestErase = b, valid, erase
			}
		}
	}
	return best, bestErase, best >= 0
}

// FreeBlocks returns the number of free blocks pooled on channel ch.
func (f *FTL) FreeBlocks(ch int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.chans[ch].freeTotal()
}

// ResetStats zeroes the activity counters while keeping all mapping and
// allocator state — the FTL half of the replay engine's post-setup seal,
// paired with flash.Device.ResetTiming so prepopulation writes leak into
// neither layer's measured statistics.
// BadBlocks and DeadDies mirror persistent retirement state, so only
// Reset (which clears that state) zeroes them.
func (f *FTL) ResetStats() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats = Stats{BadBlocks: f.stats.BadBlocks, DeadDies: f.stats.DeadDies}
}

// Reset returns the FTL to its post-New state: an empty mapping table,
// full per-die free pools in construction order, no reverse mappings, no
// retired blocks or dead dies, zero stats. The cost is proportional to
// the entries written and blocks used since construction (or the last
// Reset), not to the logical or physical capacity. The device below is
// NOT reset — pair with flash.Device.Reset, as the pool's recycle path
// does.
//
// Reset holds mu, but an operation that straddles it would still see a
// half-reset stack, so the caller must own the FTL exclusively
// (quiesced); on the replay path the pool's exclusive resource handoff
// guarantees that.
func (f *FTL) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.dirty {
		f.table[l] = entry{}
	}
	f.dirty = f.dirty[:0]
	ppb := flash.PPA(f.geo.PagesPerBlock)
	for ch := range f.chans {
		cs := &f.chans[ch]
		for _, b := range cs.usedList {
			first := f.geo.FirstPage(b)
			for p := first; p < first+ppb; p++ {
				f.reverse[p] = invalidLPA
			}
			f.usedBlocks[b] = false
		}
		cs.usedList = cs.usedList[:0]
		for _, b := range cs.badList {
			f.bad[b] = false
		}
		cs.badList = cs.badList[:0]
		for i := range cs.dies {
			cs.dies[i] = dieState{freeBlocks: cs.dies[i].freeBlocks}
		}
		cs.rr = 0
	}
	f.distributeBlocks()
	f.stats = Stats{}
}

// MaxEraseSpread returns max-min block erase counts, a wear-leveling
// quality metric. It reads each channel's counts with one device call.
func (f *FTL) MaxEraseSpread() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	minE, maxE := int32(math.MaxInt32), int32(0)
	for ch := range f.chans {
		cs := &f.chans[ch]
		f.dev.ChannelWear(ch, cs.erase, nil)
		for _, e := range cs.erase {
			minE, maxE = min(minE, e), max(maxE, e)
		}
	}
	return int(maxE - minE)
}
