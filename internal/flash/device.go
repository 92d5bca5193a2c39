package flash

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"iceclave/internal/sim"
)

// Typed fault sentinels surfaced by the injection seam. Callers match
// them with errors.Is through any number of %w wraps.
var (
	// ErrTransientRead is a retryable read failure (e.g. a read-disturb
	// ECC miss). The page data is intact; a retry may succeed.
	ErrTransientRead = errors.New("flash: transient read error")
	// ErrProgramFail is a permanent program failure: the target block is
	// worn out and must be retired by the FTL.
	ErrProgramFail = errors.New("flash: program failure")
	// ErrDieDead is a permanent die failure: every operation on the die
	// fails, forever. The FTL must stop allocating from it.
	ErrDieDead = errors.New("flash: die dead")
)

// Injector is the fault-injection seam. The device consults it before
// performing each read/program/erase, passing the arrival time, the
// channel and channel-local die of the target, and the per-channel
// ordinal n of this operation kind (0, 1, 2, ... in channel-lock
// acquisition order — deterministic on the replay path, where all
// device calls for a channel execute in (time, seq) order). A non-nil
// error aborts the operation; the device wraps it with the page/block
// context and charges the appropriate partial timing.
//
// Implementations must be pure functions of their arguments (no mutable
// state) so that injection is reproducible across worker counts;
// internal/fault.Injector is the canonical implementation.
type Injector interface {
	Read(at sim.Time, ch, die int, n uint64) error
	Program(at sim.Time, ch, die int, n uint64) error
	Erase(at sim.Time, ch, die int, n uint64) error
}

// Per-channel fault-ordinal slots, one per operation kind.
const (
	faultOpRead = iota
	faultOpProgram
	faultOpErase
	numFaultOps
)

// Timing holds the NAND command latencies and channel bandwidth. Defaults
// follow Table 3 of the paper: tRD = 50 µs, tPROG = 300 µs, 600 MB/s per
// channel. tERS uses a typical 3 ms block-erase figure (the paper does not
// state it; GC cost is dominated by page movement for the read-intensive
// workloads evaluated).
type Timing struct {
	ReadLatency      sim.Duration // array read (tRD), per page
	ProgramLatency   sim.Duration // array program (tPROG), per page
	EraseLatency     sim.Duration // block erase (tERS)
	ChannelBandwidth float64      // bytes/sec of each channel bus
}

// DefaultTiming returns the Table 3 configuration.
func DefaultTiming() Timing {
	return Timing{
		ReadLatency:      50 * sim.Microsecond,
		ProgramLatency:   300 * sim.Microsecond,
		EraseLatency:     3 * sim.Millisecond,
		ChannelBandwidth: 600 * (1 << 20), // 600 MB/s
	}
}

// PageState tracks the erase-before-write lifecycle of a flash page.
type PageState uint8

// Page lifecycle states.
const (
	PageFree    PageState = iota // erased, programmable
	PageValid                    // programmed, holds live data
	PageInvalid                  // programmed, data superseded; needs erase
)

// Stats is a snapshot of the device activity counters, taken with
// Snapshot().
type Stats struct {
	Reads        int64
	Programs     int64
	Erases       int64
	BytesRead    int64
	BytesWritten int64
	// ReadFaults and ProgramFaults count operations aborted by the
	// injection seam (successful operations are counted separately).
	ReadFaults    int64
	ProgramFaults int64
}

// counters is the internal, atomically updated form of Stats: hot-path
// accounting never extends a channel's critical section, and readers never
// take any lock (each counter is individually atomic and monotonic; the
// snapshot is not a cross-counter barrier — the same contract as
// ftl.Stats).
type counters struct {
	reads         atomic.Int64
	programs      atomic.Int64
	erases        atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	readFaults    atomic.Int64
	programFaults atomic.Int64
}

// channelState is one channel's functional and timing shard: the page
// states, erase counts, and payloads of the channel's contiguous PPA
// range, plus the channel's die command units and bus server, all under
// the channel's own lock. Operations on different channels share no lock
// and no sim.Server, so a many-channel write storm from N concurrent
// tenants scales with cores instead of serializing on a device-wide
// mutex.
type channelState struct {
	mu         sync.Mutex
	state      []PageState    // channel-local page index
	eraseCount []int32        // channel-local block index
	valid      []int32        // channel-local block index: PageValid pages
	data       map[PPA][]byte // sparse payload store, keyed by global PPA

	// touched marks the channel-local blocks whose page states or erase
	// counts have diverged from factory-fresh (any program or erase);
	// touchedList holds their indices in first-touch order. Reset walks
	// the list instead of the whole channel, so resetting a lightly-used
	// device costs O(blocks written), not O(geometry).
	touched     []bool
	touchedList []int64

	// faultOps counts this channel's operations per kind, feeding the
	// injector's ordinal argument. Guarded by cs.mu; zeroed when the
	// injector is (re)attached and on Reset, so a given plan sees the
	// same ordinals on fresh and pooled stacks.
	faultOps [numFaultOps]uint64

	dies  []*sim.Server // array reads, one unit per die
	diesW []*sim.Server // programs/erases; modern controllers suspend
	// in-flight programs for reads, so the read path does not queue
	// behind the much slower program operations
	bus *sim.Server // bus serialization for this channel
}

// Device is a simulated NAND flash array: functional page storage plus a
// timing model with per-die command units and per-channel bus bandwidth.
// All operations take an arrival time and return a completion time, so
// callers compose the device into larger discrete-event simulations.
//
// Device is safe for concurrent use and its state is sharded by channel:
// each operation resolves its channel from the PPA (or BlockID) and takes
// only that channel's lock, so N in-storage TEEs pinned to different
// channels issue commands with no mutual exclusion between them at all
// (TestCrossChannelNoSharedLock pins this, mirroring the FTL's
// cross-channel contract). Virtual-time ordering under concurrency
// follows lock-acquisition order within a channel; operations on
// different channels touch disjoint simulated resources (dies, buses,
// pages) and are causally independent. Stats are atomic counters read
// through Snapshot without any lock.
type Device struct {
	geo    Geometry
	timing Timing

	chans []channelState

	pagesPerChannel  int64
	blocksPerChannel int64
	diesPerChannel   int
	pagesPerDie      int64
	pagesPerBlock    int64

	// inj is the optional fault-injection seam; nil means every
	// operation succeeds (the default, and the bit-identical baseline).
	// Written only by SetInjector on a quiesced device, read on the
	// operation paths under the channel lock acquired after the write.
	inj Injector

	stats counters
}

// NewDevice builds a device with the given geometry and timing. It returns
// an error if the geometry is invalid.
func NewDevice(geo Geometry, timing Timing) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if timing.ChannelBandwidth <= 0 {
		return nil, fmt.Errorf("flash: channel bandwidth must be positive, got %v", timing.ChannelBandwidth)
	}
	d := &Device{
		geo:              geo,
		timing:           timing,
		chans:            make([]channelState, geo.Channels),
		pagesPerChannel:  geo.PagesPerChannel(),
		blocksPerChannel: geo.BlocksPerChannel(),
		diesPerChannel:   geo.DiesPerChannel(),
		pagesPerDie:      int64(geo.PlanesPerDie) * geo.PagesPerPlane(),
		pagesPerBlock:    int64(geo.PagesPerBlock),
	}
	for ch := range d.chans {
		cs := &d.chans[ch]
		cs.state = make([]PageState, d.pagesPerChannel)
		cs.eraseCount = make([]int32, d.blocksPerChannel)
		cs.valid = make([]int32, d.blocksPerChannel)
		cs.data = make(map[PPA][]byte)
		cs.touched = make([]bool, d.blocksPerChannel)
		cs.dies = make([]*sim.Server, d.diesPerChannel)
		cs.diesW = make([]*sim.Server, d.diesPerChannel)
		for i := range cs.dies {
			cs.dies[i] = sim.NewServer(fmt.Sprintf("c%dd%d", ch, i), 1)
			cs.diesW[i] = sim.NewServer(fmt.Sprintf("c%dd%dw", ch, i), 1)
		}
		cs.bus = sim.NewServer(fmt.Sprintf("chan%d", ch), 1)
	}
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// SetInjector attaches (or, with nil, detaches) the fault-injection
// seam and rewinds every channel's fault ordinals to zero, so the same
// injector replays the same fault sequence on a pooled stack as on a
// fresh one. Like Reset, it must only be called on a quiesced device.
func (d *Device) SetInjector(inj Injector) {
	for ch := range d.chans {
		cs := &d.chans[ch]
		cs.mu.Lock()
		cs.faultOps = [numFaultOps]uint64{}
		cs.mu.Unlock()
	}
	d.inj = inj
}

// Snapshot returns the activity counters. It is the only stats accessor:
// lock-free, safe against concurrent operations on any channel.
func (d *Device) Snapshot() Stats {
	return Stats{
		Reads:         d.stats.reads.Load(),
		Programs:      d.stats.programs.Load(),
		Erases:        d.stats.erases.Load(),
		BytesRead:     d.stats.bytesRead.Load(),
		BytesWritten:  d.stats.bytesWritten.Load(),
		ReadFaults:    d.stats.readFaults.Load(),
		ProgramFaults: d.stats.programFaults.Load(),
	}
}

// markTouched records that block lb's page states or erase count have
// diverged from fresh. Caller holds cs.mu.
func (cs *channelState) markTouched(lb int64) {
	if !cs.touched[lb] {
		cs.touched[lb] = true
		cs.touchedList = append(cs.touchedList, lb)
	}
}

// shardOf resolves p's channel shard and channel-local page index.
func (d *Device) shardOf(p PPA) (*channelState, int64) {
	return &d.chans[int64(p)/d.pagesPerChannel], int64(p) % d.pagesPerChannel
}

// blockShard resolves b's channel shard and channel-local block index.
func (d *Device) blockShard(b BlockID) (*channelState, int64) {
	return &d.chans[int64(b)/d.blocksPerChannel], int64(b) % d.blocksPerChannel
}

// localDie returns the channel-local die index of the channel-local page
// lp. Dies are the next dimension inside a channel (the layout is
// channel > chip > die > plane > block > page), so this is one division —
// the hot paths never pay a full address decomposition.
func (d *Device) localDie(lp int64) int {
	return int(lp / d.pagesPerDie)
}

// State returns the lifecycle state of page p.
func (d *Device) State(p PPA) PageState {
	cs, lp := d.shardOf(p)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.state[lp]
}

// ChannelWear copies channel ch's per-block erase counts and valid-page
// counts into erase and valid under one acquisition of the channel lock,
// so a wear-aware scan of a channel costs one lock pair, not one per
// block. Both slices are indexed by channel-local block (block
// ch*BlocksPerChannel+i lands at index i) and should hold
// BlocksPerChannel entries; a nil slice is skipped.
func (d *Device) ChannelWear(ch int, erase, valid []int32) {
	cs := &d.chans[ch]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	copy(erase, cs.eraseCount)
	copy(valid, cs.valid)
}

func (d *Device) checkPPA(p PPA) error {
	if int64(p) >= d.geo.TotalPages() {
		return fmt.Errorf("flash: PPA %d out of range (%d pages)", p, d.geo.TotalPages())
	}
	return nil
}

// transferTime is the channel-bus time for one page.
func (d *Device) transferTime() sim.Duration {
	return sim.DurationForBytes(int64(d.geo.PageSize), d.timing.ChannelBandwidth)
}

// PageTransferTime returns the channel-bus occupancy of one page — the
// short phase of a program that serializes per channel while the long
// cell-program phase overlaps across dies. Callers pinning die-pipelining
// bounds (completion < 2x tPROG) compute their budgets from this.
func (d *Device) PageTransferTime() sim.Duration { return d.transferTime() }

// Read performs a page read arriving at time at: the die is busy for tRD,
// then the page crosses the channel bus. It returns the completion time and
// the stored payload (nil if the page was never programmed with data).
// Reading a free page is a protocol error — the FTL must never map a live
// LPA to an unwritten page.
//
// With an injector attached, a read may instead fail with a wrapped
// ErrTransientRead (the array read ran — the die is charged tRD, but
// nothing crosses the bus; the returned time is when the failure is
// known and a retry may be issued) or ErrDieDead (fails fast at at).
func (d *Device) Read(at sim.Time, p PPA) (done sim.Time, data []byte, err error) {
	if err := d.checkPPA(p); err != nil {
		return at, nil, err
	}
	cs, lp := d.shardOf(p)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.state[lp] == PageFree {
		return at, nil, fmt.Errorf("flash: read of free page %d", p)
	}
	die := d.localDie(lp)
	if d.inj != nil {
		n := cs.faultOps[faultOpRead]
		cs.faultOps[faultOpRead]++
		if ferr := d.inj.Read(at, int(int64(p)/d.pagesPerChannel), die, n); ferr != nil {
			d.stats.readFaults.Add(1)
			if errors.Is(ferr, ErrDieDead) {
				return at, nil, fmt.Errorf("flash: read of page %d: %w", p, ferr)
			}
			_, failDone := cs.dies[die].Acquire(at, d.timing.ReadLatency)
			return failDone, nil, fmt.Errorf("flash: read of page %d: %w", p, ferr)
		}
	}
	_, arrayDone := cs.dies[die].Acquire(at, d.timing.ReadLatency)
	_, done = cs.bus.Acquire(arrayDone, d.transferTime())
	d.stats.reads.Add(1)
	d.stats.bytesRead.Add(int64(d.geo.PageSize))
	return done, cs.data[p], nil
}

// Program writes data into page p (out-of-place write discipline: the page
// must be in the free state). The payload crosses the channel bus first,
// then the die is busy for tPROG. data may be nil for pure-timing callers;
// a non-nil payload is copied and must not exceed the page size.
func (d *Device) Program(at sim.Time, p PPA, data []byte) (done sim.Time, err error) {
	if err := d.checkPPA(p); err != nil {
		return at, err
	}
	cs, lp := d.shardOf(p)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.state[lp] != PageFree {
		return at, fmt.Errorf("flash: program of non-free page %d (state %d)", p, cs.state[lp])
	}
	if len(data) > d.geo.PageSize {
		return at, fmt.Errorf("flash: payload %d bytes exceeds page size %d", len(data), d.geo.PageSize)
	}
	die := d.localDie(lp)
	if d.inj != nil {
		n := cs.faultOps[faultOpProgram]
		cs.faultOps[faultOpProgram]++
		if ferr := d.inj.Program(at, int(int64(p)/d.pagesPerChannel), die, n); ferr != nil {
			d.stats.programFaults.Add(1)
			if errors.Is(ferr, ErrDieDead) {
				return at, fmt.Errorf("flash: program of page %d: %w", p, ferr)
			}
			// A failed program still pays the full transfer + tPROG
			// before the status read reports the failure; the page
			// stays free and holds no payload.
			_, failBus := cs.bus.Acquire(at, d.transferTime())
			_, failDone := cs.diesW[die].Acquire(failBus, d.timing.ProgramLatency)
			return failDone, fmt.Errorf("flash: program of page %d: %w", p, ferr)
		}
	}
	_, busDone := cs.bus.Acquire(at, d.transferTime())
	_, done = cs.diesW[die].Acquire(busDone, d.timing.ProgramLatency)
	cs.state[lp] = PageValid
	cs.valid[lp/d.pagesPerBlock]++
	cs.markTouched(lp / d.pagesPerBlock)
	if data != nil {
		cs.data[p] = append([]byte(nil), data...)
	}
	d.stats.programs.Add(1)
	d.stats.bytesWritten.Add(int64(d.geo.PageSize))
	return done, nil
}

// Invalidate marks a valid page as superseded. Only the FTL calls this,
// when an LPA is rewritten elsewhere.
func (d *Device) Invalidate(p PPA) error {
	if err := d.checkPPA(p); err != nil {
		return err
	}
	cs, lp := d.shardOf(p)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.state[lp] != PageValid {
		return fmt.Errorf("flash: invalidate of non-valid page %d (state %d)", p, cs.state[lp])
	}
	cs.state[lp] = PageInvalid
	cs.valid[lp/d.pagesPerBlock]--
	delete(cs.data, p)
	return nil
}

// Erase erases block b, returning every page to the free state. Erasing a
// block that still holds valid pages is a data-loss bug in the caller, so
// it is rejected.
func (d *Device) Erase(at sim.Time, b BlockID) (done sim.Time, err error) {
	if int64(b) >= d.geo.TotalBlocks() {
		return at, fmt.Errorf("flash: block %d out of range", b)
	}
	cs, lb := d.blockShard(b)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if n := cs.valid[lb]; n > 0 {
		return at, fmt.Errorf("flash: erase of block %d with %d valid pages", b, n)
	}
	first := d.geo.FirstPage(b)
	_, lfirst := d.shardOf(first)
	if d.inj != nil {
		n := cs.faultOps[faultOpErase]
		cs.faultOps[faultOpErase]++
		if ferr := d.inj.Erase(at, int(int64(b)/d.blocksPerChannel), d.localDie(lfirst), n); ferr != nil {
			return at, fmt.Errorf("flash: erase of block %d: %w", b, ferr)
		}
	}
	for i := 0; i < d.geo.PagesPerBlock; i++ {
		cs.state[lfirst+int64(i)] = PageFree
		delete(cs.data, first+PPA(i))
	}
	_, done = cs.diesW[d.localDie(lfirst)].Acquire(at, d.timing.EraseLatency)
	cs.eraseCount[lb]++
	cs.markTouched(lb)
	d.stats.erases.Add(1)
	return done, nil
}

// InternalBandwidth returns the aggregate internal bandwidth in bytes/sec
// (channels x per-channel bandwidth) — the quantity Figure 12 sweeps.
func (d *Device) InternalBandwidth() float64 {
	return float64(d.geo.Channels) * d.timing.ChannelBandwidth
}

// ResetTiming clears the timing reservations and stats while keeping page
// contents, letting one populated device serve several timing experiments.
// It locks one channel at a time; quiesce concurrent operations first if a
// cross-channel consistent reset matters.
func (d *Device) ResetTiming() {
	for ch := range d.chans {
		cs := &d.chans[ch]
		cs.mu.Lock()
		cs.resetTiming()
		cs.mu.Unlock()
	}
	d.resetStats()
}

// Reset returns the device to its factory-fresh state: every page free,
// every erase and valid-page count zero, no payloads, idle servers, zero
// stats. The cost is proportional to the blocks actually touched since
// construction (or the last Reset), not to the geometry — the
// reuse-aware half of the pool reset contract. Like ResetTiming it locks one channel at a time, so the
// caller must quiesce concurrent operations first; on the replay path the
// pool's exclusive resource handoff guarantees that.
func (d *Device) Reset() {
	for ch := range d.chans {
		cs := &d.chans[ch]
		cs.mu.Lock()
		for _, lb := range cs.touchedList {
			clear(cs.state[lb*d.pagesPerBlock : (lb+1)*d.pagesPerBlock])
			cs.eraseCount[lb] = 0
			cs.valid[lb] = 0
			cs.touched[lb] = false
		}
		cs.touchedList = cs.touchedList[:0]
		clear(cs.data)
		cs.faultOps = [numFaultOps]uint64{}
		cs.resetTiming()
		cs.mu.Unlock()
	}
	d.resetStats()
}

// resetTiming returns the channel's servers to idle. Caller holds cs.mu.
func (cs *channelState) resetTiming() {
	for _, s := range cs.dies {
		s.Reset()
	}
	for _, s := range cs.diesW {
		s.Reset()
	}
	cs.bus.Reset()
}

func (d *Device) resetStats() {
	d.stats.reads.Store(0)
	d.stats.programs.Store(0)
	d.stats.erases.Store(0)
	d.stats.bytesRead.Store(0)
	d.stats.bytesWritten.Store(0)
	d.stats.readFaults.Store(0)
	d.stats.programFaults.Store(0)
}
