// Package ftl implements the flash translation layer of the IceClave SSD
// model: page-level logical-to-physical mapping with per-entry TEE ID bits
// (paper §4.3), out-of-place writes striped across channels, greedy garbage
// collection, wear-aware block allocation, and a demand-cached mapping
// table (CMT) in the DFTL style that IceClave places in the protected
// memory region (paper §4.2).
//
// Concurrency contract: FTL is safe for concurrent use under a sharded,
// two-level lock hierarchy (see the FTL type comment and ARCHITECTURE.md);
// tenants writing to different channels do not contend on any shared lock
// — and since the flash.Device leaf is itself channel-sharded, that
// isolation extends through the device: GC or a write storm on one
// channel takes no lock an operation on another channel can touch.
// MappingCache is not safe for concurrent use and is serialized by its
// owner (the tee.Runtime lock).
package ftl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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

// ErrDeviceFull is returned when no free page can be found even after GC.
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
	// stripesPerChannel is the number of mapping-table lock stripes per
	// channel. More stripes mean less contention between readers of
	// nearby LPAs at the cost of lock-array footprint.
	stripesPerChannel = 8
	// readRetries bounds how many times a read failing with
	// flash.ErrTransientRead is reissued before the error surfaces.
	readRetries = 3
	// programRetries bounds how many times a failed program is re-staged
	// to a fresh block (after retiring the bad block or dead die) before
	// the error surfaces.
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
	ProgramFails int64 // program failures recovered by re-staging
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

// counters is the internal, atomically updated form of Stats, so hot-path
// accounting needs no lock at all and never extends a critical section.
type counters struct {
	hostWrites   atomic.Int64
	gcWrites     atomic.Int64
	gcRuns       atomic.Int64
	erases       atomic.Int64
	translations atomic.Int64
	readRetries  atomic.Int64
	programFails atomic.Int64
	badBlocks    atomic.Int64
	deadDies     atomic.Int64
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

// channelShard is the per-channel lock domain: the die allocators, the
// round-robin cursor, the per-block in-flight program counts, and (by
// convention, see FTL) the reverse-map entries of every physical page on
// the channel. Striping consecutive writes across dies is what lets both
// reads and programs exploit die-level parallelism behind one channel
// bus. The shard is deliberately NOT held across the device's
// Program/Erase calls: the bus transfer and the die-local cell-program
// occupy the device's own sim.Servers, so programs to different dies of
// one channel overlap in simulated time and concurrent writers overlap in
// wall-clock time (see Write).
type channelShard struct {
	mu       sync.Mutex
	dies     []dieState
	rr       int
	inflight int // programs staged on this channel, not yet committed
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
func (cs *channelShard) freeTotal() int {
	n := 0
	for i := range cs.dies {
		if cs.dies[i].dead {
			continue
		}
		n += len(cs.dies[i].freeBlocks)
	}
	return n
}

// mappingStripe is one lock stripe of the mapping table, padded out so
// adjacent stripes do not share a cache line (the striped-lock layout
// conventional in sharded stores). dirty lists the stripe's table entries
// that have diverged from the zero value, in first-dirty order; Reset
// walks it so a reset costs O(entries written), not O(logical pages).
type mappingStripe struct {
	mu    sync.Mutex
	dirty []LPA
	_     [32]byte
}

// FTL is the flash translation layer. It owns the device's block
// allocation, the logical-to-physical mapping table, and the TEE ID bits.
//
// FTL is safe for concurrent use under a sharded, two-level lock
// hierarchy (PR 1's single coarse mutex is gone):
//
//   - A mapping stripe (stripes[l % S], S = Channels*stripesPerChannel)
//     guards the table entry of LPA l: its PPA, ID bits, and valid bit.
//     Translations, permission checks, and the fused translate+read
//     critical sections hold only the stripe.
//   - A channel shard (chans[ch]) guards the channel's allocator state,
//     its garbage collection, and the reverse-map entries of its physical
//     pages. Writes and GC hold the shard of the one channel involved.
//
// Because pickChannel is static (l mod Channels) and S is a multiple of
// Channels, every stripe's LPAs live on exactly one channel, and an LPA's
// pages never migrate across channels — so each operation touches one
// shard and one stripe, and tenants pinned to different channels share no
// FTL lock. The flash.Device below is sharded by channel the same way,
// so cross-channel tenants share no lock at ANY layer of the stack: an
// operation's whole lock footprint (shard, stripe, device channel) lives
// on its one channel.
//
// Lock order: channel shard first, then mapping stripe; stripe holders
// never acquire a shard. The write path is pipelined in three phases
// (stage / program / commit): stage holds the shard to run GC and
// allocate a page, marking the page's block as carrying an in-flight
// program; the device Program then runs with NO FTL lock held, so
// programs to different dies of one channel overlap in simulated time
// and concurrent writers to one channel overlap in wall-clock time;
// commit re-takes the shard (retiring the in-flight marker and updating
// the reverse map) and then the stripe for the mapping update. GC takes
// the stripes of relocated LPAs one at a time — only readers can hold
// those, and readers never wait on a shard, so the hierarchy is acyclic —
// and skips any block with an in-flight program. Readers take only their
// stripe, which excludes GC from relocating that page mid-read and pins
// the PPA the stream-cipher IV binds to.
type FTL struct {
	dev *flash.Device
	geo flash.Geometry
	// wearDelta is defaultWearDelta; tests narrow it so the least-worn
	// allocation branch fires on a short write stream.
	wearDelta int

	stripes []mappingStripe
	table   []entry // entry l guarded by stripes[l % len(stripes)]
	reverse []LPA   // PPA -> LPA for GC; entry guarded by its channel's shard
	chans   []channelShard
	// pending[b] counts programs staged on block b whose device call is
	// still in flight outside the shard; GC must not pick such a block as
	// a victim (its pages look free or lack reverse mappings until the
	// writer commits). Guarded by the block's channel shard.
	pending []int32
	// usedBlocks[b] marks blocks ever taken from a free pool — only their
	// reverse-map slots and pending counts can have diverged from fresh.
	// Guarded by the block's channel shard, like reverse and pending; the
	// per-shard usedList drives Reset.
	usedBlocks []bool
	// bad[b] marks retired blocks: a program on b failed permanently, so
	// the allocator never re-activates it and GC never erases it. Valid
	// pages already on a bad block stay readable (read-only retirement).
	// Guarded by the block's channel shard; the per-shard badList drives
	// Reset.
	bad []bool

	logicalPages     int64
	blocksPerChannel int64
	blocksPerDie     int64
	stats            counters
}

// programHook, when non-nil, runs immediately before each write-path
// device program, after every FTL lock has been released. Tests use it to
// pin the pipelining contract that no shard is held across device calls.
var programHook func(ch int)

// freePickHook and victimHook, when non-nil, observe each allocator
// decision under the channel shard before it is acted on: the index
// allocate takes from die's free pool, and the block pickVictim chose
// (ok false: none). Tests check both against a per-block reference.
var (
	freePickHook func(ch, die, idx int)
	victimHook   func(ch int, victim flash.BlockID, ok bool)
)

// releaseHook, when non-nil, observes each mapping entry ReleaseIDs
// visits, under its stripe. Tests count the visits to pin that teardown
// touches the released list only, never the whole table.
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
		stripes:      make([]mappingStripe, geo.Channels*stripesPerChannel),
		table:        make([]entry, logical),
		reverse:      make([]LPA, geo.TotalPages()),
		chans:        make([]channelShard, geo.Channels),
		pending:      make([]int32, geo.TotalBlocks()),
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
// Caller must own the FTL exclusively (construction or a quiesced Reset).
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
// stamps them into every pool entry. Caller holds the channel shard.
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

// Device returns the underlying flash device.
func (f *FTL) Device() *flash.Device { return f.dev }

// Stats returns a consistent-enough snapshot of the activity counters
// (each counter is atomic; the snapshot is not a cross-counter barrier).
func (f *FTL) Stats() Stats {
	return Stats{
		HostWrites:   f.stats.hostWrites.Load(),
		GCWrites:     f.stats.gcWrites.Load(),
		GCRuns:       f.stats.gcRuns.Load(),
		Erases:       f.stats.erases.Load(),
		Translations: f.stats.translations.Load(),
		ReadRetries:  f.stats.readRetries.Load(),
		ProgramFails: f.stats.programFails.Load(),
		BadBlocks:    f.stats.badBlocks.Load(),
		DeadDies:     f.stats.deadDies.Load(),
	}
}

func (f *FTL) checkLPA(l LPA) error {
	if int64(l) >= f.logicalPages {
		return fmt.Errorf("ftl: LPA %d out of range (%d logical pages)", l, f.logicalPages)
	}
	return nil
}

// stripeOf maps an LPA to its mapping-table lock stripe. len(f.stripes) is
// a multiple of the channel count, so stripeOf(l) % Channels ==
// pickChannel(l): a stripe never spans channels.
func (f *FTL) stripeOf(l LPA) *mappingStripe {
	return &f.stripes[uint32(l)%uint32(len(f.stripes))]
}

// Translate returns the physical page backing l. It does not check ID
// bits; use TranslateFor on the TEE path.
func (f *FTL) Translate(l LPA) (flash.PPA, error) {
	if err := f.checkLPA(l); err != nil {
		return flash.InvalidPPA, err
	}
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	f.stats.translations.Add(1)
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
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	f.stats.translations.Add(1)
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
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	return f.table[l].id, nil
}

// ClaimID stamps id into l's entry only if the entry is unowned (or
// already carries id) — the check and the stamp are atomic under l's
// stripe, so two TEEs racing to claim one LPA cannot both win. This is
// the FTL half of the runtime's SetIDBits API and runs in the secure
// world. The FTL keeps no per-ID record of its stamps: the runtime lists
// every page it stamps and hands that list to ReleaseIDs at teardown, so
// any other caller of ClaimID must release its own stamps the same way.
func (f *FTL) ClaimID(l LPA, id TEEID) error {
	if err := f.checkLPA(l); err != nil {
		return err
	}
	if id > MaxTEEID {
		return fmt.Errorf("ftl: TEE ID %d exceeds 4 bits", id)
	}
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur := f.table[l].id; cur != IDNone && cur != id {
		return fmt.Errorf("%w: LPA %d held by ID %d", ErrOwned, l, cur)
	}
	f.markDirty(st, l)
	f.table[l].id = id
	return nil
}

// ReleaseIDs resets the ID bits of the listed entries back to IDNone,
// used when a TEE terminates and its ID is recycled: lpas is the list of
// pages the TEE was stamped on. An entry is cleared only if it still
// carries id, so an entry another TEE has since re-stamped keeps its
// owner; out-of-range LPAs are skipped. It takes each entry's stripe in
// turn, so the cost is O(len(lpas)), never O(logical pages), and
// concurrent tenants keep translating while a neighbour is torn down.
func (f *FTL) ReleaseIDs(id TEEID, lpas []LPA) {
	for _, l := range lpas {
		if int64(l) >= f.logicalPages {
			continue
		}
		st := f.stripeOf(l)
		st.mu.Lock()
		if releaseHook != nil {
			releaseHook(l)
		}
		if f.table[l].id == id {
			f.table[l].id = IDNone
		}
		st.mu.Unlock()
	}
}

// readRetry issues a device read, reissuing up to readRetries times on
// flash.ErrTransientRead; each retry starts at the failed attempt's
// completion time, so the retry latency lands on the virtual clock. Any
// other error (including flash.ErrDieDead) surfaces immediately.
func (f *FTL) readRetry(at sim.Time, ppa flash.PPA) (done sim.Time, data []byte, err error) {
	done, data, err = f.dev.Read(at, ppa)
	for r := 0; r < readRetries && errors.Is(err, flash.ErrTransientRead); r++ {
		f.stats.readRetries.Add(1)
		done, data, err = f.dev.Read(done, ppa)
	}
	return done, data, err
}

// Read translates and reads l, returning the completion time and payload.
// Translation and the device read happen under l's mapping stripe, so a
// concurrent GC pass (which takes the stripe before relocating a page)
// cannot move the page between the two. Transient read faults are
// retried up to readRetries times before surfacing.
func (f *FTL) Read(at sim.Time, l LPA) (done sim.Time, data []byte, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, nil, err
	}
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	f.stats.translations.Add(1)
	e := f.table[l]
	if !e.valid {
		return at, nil, ErrUnmapped
	}
	return f.readRetry(at, e.ppa)
}

// ReadFor is the TEE data-path read: the permission-checked translation of
// TranslateFor fused with the device read under l's mapping stripe, so the
// returned payload and PPA (which binds the stream-cipher IV) are
// consistent even while other tenants write and trigger GC relocation.
// The ownership re-check does not count as a translation — the runtime
// already charged one through ReadMappingEntry; this is the same lookup
// revalidated at use time.
func (f *FTL) ReadFor(at sim.Time, l LPA, id TEEID) (done sim.Time, ppa flash.PPA, data []byte, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, flash.InvalidPPA, nil, err
	}
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
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
// Locking: the write is pipelined — stage under the channel shard,
// device program with no FTL lock, commit under shard then stripe — so
// the die-local cell-program time never extends any FTL critical section.
//
// A program failing with flash.ErrProgramFail retires the block to the
// bad-block table and re-stages the write to a fresh block (up to
// programRetries times, each attempt starting at the failed one's
// completion time); flash.ErrDieDead retires the whole die the same way.
func (f *FTL) Write(at sim.Time, l LPA, data []byte) (done sim.Time, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, err
	}
	ch := f.pickChannel(l)
	for attempt := 0; ; attempt++ {
		ppa, issueAt, err := f.stage(at, ch)
		if err != nil {
			return at, err
		}
		if programHook != nil {
			programHook(ch)
		}
		done, err = f.dev.Program(issueAt, ppa, data)
		if err != nil {
			f.abandon(ch, ppa)
			next, retry := f.recoverProgram(err, ch, ppa, done, attempt)
			if !retry {
				return at, err
			}
			at = next
			continue
		}
		if err := f.commit(l, ch, ppa); err != nil {
			return done, err
		}
		return done, nil
	}
}

// WriteFor is the TEE data-path write: the §4.3 ownership check, the
// mapping update, and the ID stamping of a newly adopted page happen
// under l's mapping stripe at commit time, so two TEEs racing on an
// unowned LPA cannot both claim it. owner reports the entry's pre-commit
// owner; adopted reports whether the entry was unowned and has been
// stamped with id.
//
// A denied write is rejected on a stripe-only fast path before the
// channel shard (and any GC it would imply) is touched; ownership is
// re-verified under the stripe at commit, because it can change while the
// program is in flight. In that rare race the page is already on the die,
// so it is invalidated for GC to reclaim and the write is denied — the
// pipelined analogue of the old inside-the-lock denial.
func (f *FTL) WriteFor(at sim.Time, l LPA, data []byte, id TEEID) (done sim.Time, owner TEEID, adopted bool, err error) {
	if err := f.checkLPA(l); err != nil {
		return at, IDNone, false, err
	}
	st := f.stripeOf(l)
	st.mu.Lock()
	owner = f.table[l].id
	st.mu.Unlock()
	if owner != id && owner != IDNone {
		return at, owner, false, fmt.Errorf("%w: LPA %d owned by %d", ErrAccessDenied, l, owner)
	}
	ch := f.pickChannel(l)
	for attempt := 0; ; attempt++ {
		ppa, issueAt, err := f.stage(at, ch)
		if err != nil {
			return at, owner, false, err
		}
		if programHook != nil {
			programHook(ch)
		}
		done, err = f.dev.Program(issueAt, ppa, data)
		if err != nil {
			f.abandon(ch, ppa)
			next, retry := f.recoverProgram(err, ch, ppa, done, attempt)
			if !retry {
				return at, owner, false, err
			}
			at = next
			continue
		}
		owner, adopted, err = f.commitFor(l, ch, ppa, id)
		if err != nil {
			return done, owner, false, err
		}
		return done, owner, adopted, nil
	}
}

// stage reserves a write's physical page under ch's shard: run GC if the
// channel is short on free blocks, allocate the next page, and mark its
// block as carrying an in-flight program so GC leaves the block alone
// while the device call proceeds outside the shard. It returns the issue
// time, delayed past any GC the allocation forced.
//
// A full-device verdict while the channel has in-flight programs is not
// final: the blocks GC had to skip become victims as soon as their
// writers commit, so stage yields and retries instead of surfacing a
// spurious ErrDeviceFull. Single-goroutine callers never see a retry —
// with no concurrent writer, inflight is always zero here.
func (f *FTL) stage(at sim.Time, ch int) (flash.PPA, sim.Time, error) {
	cs := &f.chans[ch]
	for {
		cs.mu.Lock()
		newAt, err := f.ensureFree(at, ch)
		if err == nil {
			var ppa flash.PPA
			ppa, err = f.allocate(ch)
			if err == nil {
				f.pending[f.geo.BlockOf(ppa)]++
				cs.inflight++
				cs.mu.Unlock()
				return ppa, newAt, nil
			}
		}
		retry := errors.Is(err, ErrDeviceFull) && cs.inflight > 0
		cs.mu.Unlock()
		if !retry {
			return flash.InvalidPPA, at, err
		}
		runtime.Gosched()
	}
}

// abandon retires the in-flight marker of a staged program the device
// rejected. The allocated page stays unprogrammed; GC reclaims it with
// the rest of its block.
func (f *FTL) abandon(ch int, ppa flash.PPA) {
	cs := &f.chans[ch]
	cs.mu.Lock()
	f.pending[f.geo.BlockOf(ppa)]--
	cs.inflight--
	cs.mu.Unlock()
}

// recoverProgram classifies a write-path program failure. For the two
// recoverable fault classes it retires the faulty unit (the block for a
// program failure, the whole die for a die death) and reports the
// virtual time the next staging attempt should start at; any other
// error, or an exhausted retry budget, surfaces to the caller.
func (f *FTL) recoverProgram(err error, ch int, ppa flash.PPA, failDone sim.Time, attempt int) (sim.Time, bool) {
	if attempt >= programRetries {
		return 0, false
	}
	b := f.geo.BlockOf(ppa)
	switch {
	case errors.Is(err, flash.ErrProgramFail):
		f.stats.programFails.Add(1)
		cs := &f.chans[ch]
		cs.mu.Lock()
		f.retireLocked(cs, b)
		cs.mu.Unlock()
		return failDone, true
	case errors.Is(err, flash.ErrDieDead):
		cs := &f.chans[ch]
		cs.mu.Lock()
		f.killDieLocked(cs, f.dieOf(b))
		cs.mu.Unlock()
		return failDone, true
	}
	return 0, false
}

// retireLocked moves b to the bad-block table: the allocator drops it as
// an active block and GC never selects it again. Valid pages already on
// b remain mapped and readable. Caller holds cs, b's channel shard.
func (f *FTL) retireLocked(cs *channelShard, b flash.BlockID) {
	if f.bad[b] {
		return
	}
	f.bad[b] = true
	cs.badList = append(cs.badList, b)
	f.stats.badBlocks.Add(1)
	ds := &cs.dies[f.dieOf(b)]
	if ds.hasActive && ds.activeBlock == b {
		ds.hasActive = false
	}
}

// killDieLocked marks a die permanently dead: the allocator skips it,
// its free pool stops counting toward freeTotal, and GC never picks its
// blocks. Caller holds cs, the die's channel shard.
func (f *FTL) killDieLocked(cs *channelShard, die int) {
	ds := &cs.dies[die]
	if ds.dead {
		return
	}
	ds.dead = true
	ds.hasActive = false
	f.stats.deadDies.Add(1)
}

// commit publishes a programmed page: under the shard it retires the
// in-flight marker and the old page's reverse mapping, under l's stripe
// it swaps the mapping entry (preserving the ID bits) and invalidates the
// superseded page. Lock order shard -> stripe, the one place both levels
// are held together.
func (f *FTL) commit(l LPA, ch int, ppa flash.PPA) error {
	cs := &f.chans[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	f.pending[f.geo.BlockOf(ppa)]--
	cs.inflight--
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	return f.remap(l, ppa)
}

// commitFor is commit with the §4.3 ownership re-check and adoption
// stamp. A denial discovered here (the entry changed hands mid-program)
// invalidates the freshly programmed page so GC can reclaim it.
func (f *FTL) commitFor(l LPA, ch int, ppa flash.PPA, id TEEID) (owner TEEID, adopted bool, err error) {
	cs := &f.chans[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	f.pending[f.geo.BlockOf(ppa)]--
	cs.inflight--
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	owner = f.table[l].id
	if owner != id && owner != IDNone {
		if ierr := f.dev.Invalidate(ppa); ierr != nil {
			return owner, false, ierr
		}
		return owner, false, fmt.Errorf("%w: LPA %d owned by %d", ErrAccessDenied, l, owner)
	}
	if err := f.remap(l, ppa); err != nil {
		return owner, false, err
	}
	if owner == IDNone {
		f.table[l].id = id
		adopted = true
	}
	return owner, adopted, nil
}

// markDirty records that l's table entry has diverged from the zero
// value, entering it in its stripe's reset list once. Caller holds st,
// which must be l's stripe.
func (f *FTL) markDirty(st *mappingStripe, l LPA) {
	if !f.table[l].dirty {
		f.table[l].dirty = true
		st.dirty = append(st.dirty, l)
	}
}

// remap points l at its freshly programmed page and retires the old one.
// Caller holds ch's shard and l's stripe.
func (f *FTL) remap(l LPA, ppa flash.PPA) error {
	old := f.table[l]
	if old.valid {
		if err := f.dev.Invalidate(old.ppa); err != nil {
			return err
		}
		f.reverse[old.ppa] = invalidLPA
	}
	f.markDirty(f.stripeOf(l), l)
	f.table[l] = entry{ppa: ppa, id: old.id, valid: true, dirty: true}
	f.reverse[ppa] = l
	f.stats.hostWrites.Add(1)
	return nil
}

// pickChannel stripes logical pages across channels for parallelism. It
// is static on purpose: an LPA's pages live on one channel forever, which
// is what keeps the stripe and shard lock domains disjoint per operation.
func (f *FTL) pickChannel(l LPA) int { return int(uint32(l) % uint32(f.geo.Channels)) }

// allocate hands out the next free page in ch, round-robining across the
// channel's dies so consecutive writes stripe over die-level parallelism.
// Within a die, allocation prefers the least-worn free block once wear
// spread exceeds wearDelta. Caller holds the channel shard.
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
// device call. Caller holds the channel shard.
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
// the low-water mark or no further space can be reclaimed. Caller holds
// the channel shard but no mapping stripe (GC takes stripes itself).
func (f *FTL) ensureFree(at sim.Time, ch int) (sim.Time, error) {
	for f.chans[ch].freeTotal() < gcFreeBlockLow {
		done, reclaimed, err := f.collectChannel(at, ch)
		if err != nil {
			return at, err
		}
		if !reclaimed {
			if f.chans[ch].freeTotal() == 0 {
				return at, ErrDeviceFull
			}
			break
		}
		at = done
	}
	return at, nil
}

// collectChannel performs one greedy GC pass on ch: pick the non-free,
// non-active block with the fewest valid pages, relocate them, erase it.
// Caller holds the channel shard; each live page's relocation takes that
// page's mapping stripe, so a concurrent reader of the same LPA either
// completes its device read before the move or observes the new PPA.
func (f *FTL) collectChannel(at sim.Time, ch int) (done sim.Time, reclaimed bool, err error) {
	victim, erases, ok := f.pickVictim(ch)
	if victimHook != nil {
		victimHook(ch, victim, ok)
	}
	if !ok {
		return at, false, nil
	}
	f.stats.gcRuns.Add(1)
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
			f.killDieLocked(&f.chans[ch], f.dieOf(victim))
			return at, false, nil
		}
		return at, false, err
	}
	f.stats.erases.Add(1)
	die := f.dieOf(victim)
	ds := &f.chans[ch].dies[die]
	ds.freeBlocks = append(ds.freeBlocks, poolBlock{b: victim, erases: erases + 1})
	return done, true, nil
}

// relocate moves one live page (src, mapped by l) to a fresh page on the
// same channel, under l's mapping stripe. Caller holds the channel shard.
// Unlike the pipelined write path, GC keeps the shard across its device
// calls on purpose: it is the allocator's own maintenance pass, it must
// see a frozen allocator while it rewrites reverse mappings, and its
// programs target the active block, which concurrent writers on this
// channel are blocked from staging into anyway.
func (f *FTL) relocate(at sim.Time, src flash.PPA, l LPA, ch int) (sim.Time, error) {
	st := f.stripeOf(l)
	st.mu.Lock()
	defer st.mu.Unlock()
	readDone, data, err := f.readRetry(at, src)
	if err != nil {
		return at, err
	}
	cs := &f.chans[ch]
	for attempt := 0; ; attempt++ {
		dst, err := f.allocate(ch)
		if err != nil {
			return at, err
		}
		progDone, err := f.dev.Program(readDone, dst, data)
		if err != nil {
			// Same recovery as the write path, but the shard is already
			// held, so retire/kill in place and re-allocate.
			if attempt < programRetries {
				switch {
				case errors.Is(err, flash.ErrProgramFail):
					f.stats.programFails.Add(1)
					f.retireLocked(cs, f.geo.BlockOf(dst))
					readDone = progDone
					continue
				case errors.Is(err, flash.ErrDieDead):
					f.killDieLocked(cs, f.dieOf(f.geo.BlockOf(dst)))
					continue
				}
			}
			return at, err
		}
		if err := f.dev.Invalidate(src); err != nil {
			return at, err
		}
		f.reverse[src] = invalidLPA
		f.reverse[dst] = l
		f.table[l].ppa = dst
		f.stats.gcWrites.Add(1)
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
// invalid page so the erase reclaims space. Blocks with in-flight programs
// (staged by a writer that has released the shard) are skipped — their
// pages look free or lack reverse mappings until the writer commits. Ties
// break toward the least-erased block, which rotates erases evenly across
// the channel instead of hammering the lowest-numbered fully-invalid
// block. It reports the victim's erase count too. The scan walks only
// ch's BlockID range, reading its wear with one device call. Caller holds
// the channel shard.
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
			if cs.skip[i] || f.pending[b] > 0 || f.bad[b] {
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
	cs := &f.chans[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.freeTotal()
}

// ResetStats zeroes the activity counters while keeping all mapping and
// allocator state — the FTL half of the replay engine's post-setup seal,
// paired with flash.Device.ResetTiming so prepopulation writes leak into
// neither layer's measured statistics.
// BadBlocks and DeadDies mirror persistent retirement state, so only
// Reset (which clears that state) zeroes them.
func (f *FTL) ResetStats() {
	f.stats.hostWrites.Store(0)
	f.stats.gcWrites.Store(0)
	f.stats.gcRuns.Store(0)
	f.stats.erases.Store(0)
	f.stats.translations.Store(0)
	f.stats.readRetries.Store(0)
	f.stats.programFails.Store(0)
}

// Reset returns the FTL to its post-New state: an empty mapping table,
// full per-die free pools in construction order, no reverse mappings, no
// in-flight program markers, zero stats. The cost is proportional to the
// entries written and blocks used since construction (or the last Reset),
// not to the logical or physical capacity. The device below is NOT reset
// — pair with flash.Device.Reset, as the pool's recycle path does.
//
// Reset takes each stripe and shard lock in turn, but a concurrent
// operation could still observe a half-reset FTL, so the caller must own
// the FTL exclusively (quiesced); on the replay path the pool's
// exclusive resource handoff guarantees that.
func (f *FTL) Reset() {
	for s := range f.stripes {
		st := &f.stripes[s]
		st.mu.Lock()
		for _, l := range st.dirty {
			f.table[l] = entry{}
		}
		st.dirty = st.dirty[:0]
		st.mu.Unlock()
	}
	ppb := flash.PPA(f.geo.PagesPerBlock)
	for ch := range f.chans {
		cs := &f.chans[ch]
		cs.mu.Lock()
		for _, b := range cs.usedList {
			first := f.geo.FirstPage(b)
			for p := first; p < first+ppb; p++ {
				f.reverse[p] = invalidLPA
			}
			f.pending[b] = 0
			f.usedBlocks[b] = false
		}
		cs.usedList = cs.usedList[:0]
		for _, b := range cs.badList {
			f.bad[b] = false
		}
		cs.badList = cs.badList[:0]
		for i := range cs.dies {
			ds := &cs.dies[i]
			ds.activeBlock = 0
			ds.nextPage = 0
			ds.hasActive = false
			ds.dead = false
		}
		cs.rr = 0
		cs.inflight = 0
		cs.mu.Unlock()
	}
	f.distributeBlocks()
	f.ResetStats()
	f.stats.badBlocks.Store(0)
	f.stats.deadDies.Store(0)
}

// MaxEraseSpread returns max-min block erase counts, a wear-leveling
// quality metric. It reads each channel's counts with one device call,
// under that channel's shard.
func (f *FTL) MaxEraseSpread() int {
	minE, maxE := int32(math.MaxInt32), int32(0)
	for ch := range f.chans {
		cs := &f.chans[ch]
		cs.mu.Lock()
		f.dev.ChannelWear(ch, cs.erase, nil)
		for _, e := range cs.erase {
			minE, maxE = min(minE, e), max(maxE, e)
		}
		cs.mu.Unlock()
	}
	return int(maxE - minE)
}
