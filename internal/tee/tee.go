// Package tee implements the IceClave runtime (paper §4.5–4.6): the
// lifecycle of in-storage trusted execution environments (CreateTEE,
// TerminateTEE, ThrowOutTEE), mapping-table access control through the FTL
// ID bits (SetIDBits / ReadMappingEntry), the three-region TrustZone memory
// layout, the cached mapping table in the protected region, and the
// encrypted flash-to-DRAM data path through the stream cipher engine.
//
// This is the functional layer: permissions are really enforced, pages are
// really encrypted on the simulated internal bus, and violations really
// abort the offending TEE. Timing experiments use the same cost constants
// through the core package's replay engine.
//
// Runtime is safe for concurrent use: N TEEs can read, write, and
// terminate from their own goroutines. The runtime mutex guards the
// lifecycle tables, the protected-region mapping cache, the world monitor,
// and the virtual clock (which advances monotonically under concurrency);
// the flash data path and the stream cipher run outside it so concurrent
// page reads overlap in their cipher work. Below the runtime, the FTL's
// one mutex serializes the mapping table and the flash device for the
// short bookkeeping of each page access. Isolation still holds
// mid-flight: ownership is re-checked inside the FTL's critical section
// on every data access.
package tee

import (
	"errors"
	"fmt"
	"sync"

	"iceclave/internal/fault"
	"iceclave/internal/ftl"
	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/trivium"
	"iceclave/internal/trustzone"
)

// State is a TEE lifecycle state.
type State uint8

// TEE lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StateAborted
	StateTerminated
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateAborted:
		return "aborted"
	default:
		return "terminated"
	}
}

// Costs are the Table 5 overhead constants, measured by the paper on the
// OpenSSD Cosmos+ FPGA prototype and adopted here as model parameters.
type Costs struct {
	Create      sim.Duration // TEE creation: 95 µs
	Delete      sim.Duration // TEE deletion: 58 µs
	WorldSwitch sim.Duration // secure<->normal switch: 3.8 µs
	Encrypt     sim.Duration // per memory encryption op: 102.6 ns
	Verify      sim.Duration // per memory verification op: 151.2 ns
}

// DefaultCosts returns the Table 5 constants (rounded to the ns tick).
func DefaultCosts() Costs {
	return Costs{
		Create:      95 * sim.Microsecond,
		Delete:      58 * sim.Microsecond,
		WorldSwitch: 3800 * sim.Nanosecond,
		Encrypt:     103 * sim.Nanosecond,
		Verify:      151 * sim.Nanosecond,
	}
}

// Config describes a TEE creation request (the CreateTEE API of Table 2).
type Config struct {
	// Binary is the offloaded program image; §4.5 reports 28–528 KB
	// images and fails creation when the image exceeds available memory.
	Binary []byte
	// LPAs are the logical pages the program may access; CreateTEE sets
	// their mapping-table ID bits.
	LPAs []ftl.LPA
	// HeapBytes is the preallocated contiguous region (default 16 MB).
	HeapBytes uint64
}

// DefaultHeapBytes is the §4.5 preallocation: 16 MB.
const DefaultHeapBytes = 16 << 20

// ErrNoFreeID is returned when all 15 TEE IDs are live.
var ErrNoFreeID = errors.New("tee: no free TEE ID")

// ErrLPAOwned is returned by CreateTEE when a requested LPA is already
// owned by a live TEE. Creation rejects the request rather than
// re-stamping the entry, so a host bug (or a malicious co-tenant racing
// CreateTEE) cannot transfer ownership of live data.
var ErrLPAOwned = errors.New("tee: LPA already owned by a live TEE")

// ErrTooLarge is returned when the binary does not fit available memory.
var ErrTooLarge = errors.New("tee: program image exceeds available SSD DRAM")

// ErrAborted is returned for operations on a thrown-out TEE.
var ErrAborted = errors.New("tee: TEE aborted")

// ErrIntegrity is returned when a page crossing into the TEE's protected
// DRAM fails MAC verification. Errors carrying it also carry
// mee.ErrIntegrity, so callers can match at either layer.
var ErrIntegrity = errors.New("tee: page integrity verification failed")

// TEE is one in-storage trusted execution environment. Its lifecycle state
// may be observed from any goroutine while the owning tenant drives it.
type TEE struct {
	eid      ftl.TEEID
	heapBase uint64
	heapSize uint64
	binary   int // bytes

	mu    sync.Mutex
	state State
	// lpas is the owned-LPA list: the creation LPAs plus the pages
	// WritePage adopted. Every entry the runtime stamps with eid is on
	// it, and reclaim releases the ID bits on exactly these.
	lpas     []ftl.LPA
	result   []byte
	abortMsg string
	// ops counts in-flight data-path operations (ReadPage/WritePage).
	// The runtime recycles the TEE's 4-bit ID only when the TEE has left
	// the running state AND ops is zero; otherwise an operation holding
	// the old eid could alias a successor TEE that was handed the same
	// ID — see reclaim.
	ops       int
	reclaimed bool
}

// EID returns the TEE's 4-bit identity.
func (t *TEE) EID() ftl.TEEID { return t.eid }

// State returns the lifecycle state.
func (t *TEE) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Result returns the output copied out at termination.
func (t *TEE) Result() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result
}

// AbortReason returns the ThrowOutTEE message, if any.
func (t *TEE) AbortReason() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.abortMsg
}

// running reports the state and abort message in one consistent read.
func (t *TEE) running() (bool, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == StateRunning, t.abortMsg
}

// abort transitions to StateAborted; it reports false if the TEE already
// left the running/created states (idempotent throw-out).
func (t *TEE) abort(reason string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == StateAborted || t.state == StateTerminated {
		return false
	}
	t.state = StateAborted
	t.abortMsg = reason
	return true
}

// terminate transitions to StateTerminated with the result attached; it
// errors if the TEE is not in a terminable state.
func (t *TEE) terminate(result []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateRunning && t.state != StateCreated {
		return fmt.Errorf("tee: terminate in state %v", t.state)
	}
	t.result = append([]byte(nil), result...)
	t.state = StateTerminated
	return nil
}

// addLPA records an adopted intermediate page.
func (t *TEE) addLPA(l ftl.LPA) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lpas = append(t.lpas, l)
}

// ownedLPAs returns the owned-LPA list under t.mu.
func (t *TEE) ownedLPAs() []ftl.LPA {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lpas
}

// beginOp admits a data-path operation while the TEE is running.
func (t *TEE) beginOp() (bool, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateRunning {
		return false, t.abortMsg
	}
	t.ops++
	return true, ""
}

// opDone retires a data-path operation; it reports true when this was
// the last in-flight operation of an already dead TEE, i.e. the caller
// must now perform the deferred reclaim.
func (t *TEE) opDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops--
	if t.ops == 0 && t.state != StateRunning && !t.reclaimed {
		t.reclaimed = true
		return true
	}
	return false
}

// readyToReclaim claims the (single) reclaim of a dead TEE if no
// operation is in flight. Called after the state left StateRunning.
func (t *TEE) readyToReclaim() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == 0 && !t.reclaimed {
		t.reclaimed = true
		return true
	}
	return false
}

// Stats counts runtime activity.
type Stats struct {
	Created    int64
	Terminated int64
	Aborted    int64
	CMTHits    int64
	CMTMisses  int64
	BusPages   int64 // pages that crossed the internal bus encrypted
}

// span is one free region of the TEE-heap area of controller DRAM.
type span struct{ base, size uint64 }

// Runtime is the IceClave runtime: it lives in the secure world and
// manages TEEs, the protected-region mapping cache, and the cipher engine.
type Runtime struct {
	ftl     *ftl.FTL
	cipher  *trivium.Engine
	mem     *mee.Engine
	space   *trustzone.AddressSpace
	monitor *trustzone.Monitor
	cmt     *ftl.MappingCache
	costs   Costs

	mu       sync.Mutex
	now      sim.Time
	inUse    [16]bool
	tees     map[ftl.TEEID]*TEE
	freeHeap []span // free regions sorted by base, coalesced
	heapFree uint64 // total free bytes across freeHeap
	stats    Stats

	// lastBusPage is the ciphertext most recently observed on the bus
	// (LastBusTransfer hands out copies). ReadPage encrypts each page
	// into a buffer from busPages outside r.mu, then swaps it in here
	// under r.mu and returns the buffer it replaced to the pool, so
	// recording bus traffic copies and allocates nothing per read.
	lastBusPage []byte

	// busPages pools page-sized bus buffers, so concurrent TEEs share a
	// small steady-state set instead of allocating one per read.
	busPages sync.Pool

	// faults, when non-nil, injects deterministic MAC-verification
	// failures on the ReadPage data path; macOps counts each TEE's
	// MAC-verified reads, the per-tenant ordinal the plan keys on.
	// Both guarded by r.mu.
	faults *fault.Plan
	macOps map[ftl.TEEID]uint64
}

// Layout constants for the three-region physical memory map (Figure 4).
const (
	secureBase    = uint64(0)
	secureSize    = uint64(64 << 20)
	protectedBase = secureBase + secureSize
	protectedSize = uint64(64 << 20)
	normalBase    = protectedBase + protectedSize
)

// Options configures runtime construction.
type Options struct {
	Costs Costs
	// CipherKey is the trivium.KeySize-byte bus key; a fixed default is
	// used if nil.
	CipherKey []byte
	// DRAMBytes is the controller DRAM capacity (default 4 GB). It must
	// exceed the 128 MB of secure and protected regions; the rest holds
	// the TEE heaps.
	DRAMBytes uint64
	CMTBytes  uint64 // cached-mapping-table capacity (default 32 MB)
}

// NewRuntime builds a runtime over an FTL. The memory map places the
// runtime and FTL in the secure region, the mapping table cache in the
// protected region, and TEE heaps in the normal region. It rejects a
// cipher key of the wrong length and a DRAM too small to hold a heap.
func NewRuntime(f *ftl.FTL, opts Options) (*Runtime, error) {
	if opts.Costs == (Costs{}) {
		opts.Costs = DefaultCosts()
	}
	if opts.CipherKey == nil {
		opts.CipherKey = []byte("iceclave-k")
	}
	if len(opts.CipherKey) != trivium.KeySize {
		return nil, fmt.Errorf("tee: cipher key is %d bytes, want %d", len(opts.CipherKey), trivium.KeySize)
	}
	if opts.DRAMBytes == 0 {
		opts.DRAMBytes = 4 << 30
	}
	if opts.DRAMBytes <= normalBase {
		return nil, fmt.Errorf("tee: %d bytes of DRAM leave no TEE heap above the %d-byte secure and protected regions", opts.DRAMBytes, normalBase)
	}
	if opts.CMTBytes == 0 {
		opts.CMTBytes = 32 << 20
	}
	space := &trustzone.AddressSpace{}
	regions := []trustzone.Region{
		{Name: "runtime+ftl", Base: secureBase, Size: secureSize, Kind: trustzone.RegionSecure},
		{Name: "mapping-table", Base: protectedBase, Size: protectedSize, Kind: trustzone.RegionProtected},
		{Name: "tee-heaps", Base: normalBase, Size: opts.DRAMBytes - normalBase, Kind: trustzone.RegionNormal},
	}
	for _, r := range regions {
		if err := space.AddRegion(r); err != nil {
			return nil, err
		}
	}
	var aesKey [16]byte
	var macKey [32]byte
	copy(aesKey[:], "iceclave-mee-aes")
	copy(macKey[:], "iceclave-mee-mac")
	rt := &Runtime{
		ftl:      f,
		cipher:   trivium.NewEngine(opts.CipherKey, 0x1CEC1A7E0001),
		mem:      mee.NewEngine(aesKey, macKey),
		space:    space,
		monitor:  trustzone.NewMonitor(opts.Costs.WorldSwitch),
		cmt:      ftl.NewMappingCache(opts.CMTBytes, uint64(f.Device().Geometry().PageSize)),
		costs:    opts.Costs,
		tees:     make(map[ftl.TEEID]*TEE),
		freeHeap: []span{{base: normalBase, size: opts.DRAMBytes - normalBase}},
		heapFree: opts.DRAMBytes - normalBase,
	}
	pageSize := int(f.Device().Geometry().PageSize)
	rt.busPages.New = func() any {
		buf := make([]byte, pageSize)
		return &buf
	}
	// The runtime itself executes in the normal world between service
	// calls; boot hand-off to the normal world happens here.
	rt.now = rt.monitor.SwitchTo(rt.now, trustzone.Normal)
	return rt, nil
}

// Now returns the runtime's internal clock.
func (r *Runtime) Now() sim.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

// Costs returns the configured cost constants.
func (r *Runtime) Costs() Costs { return r.costs }

// Stats returns a copy of the runtime counters.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Memory exposes the MEE-protected DRAM engine.
func (r *Runtime) Memory() *mee.Engine { return r.mem }

// SetFaultPlan attaches (or, with nil, detaches) the deterministic
// fault plan driving MAC-verification failures on the ReadPage path,
// rewinding the per-TEE MAC ordinals so the same plan replays the same
// failure sequence.
func (r *Runtime) SetFaultPlan(p *fault.Plan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.Zero() {
		r.faults = nil
		r.macOps = nil
		return
	}
	r.faults = p
	r.macOps = make(map[ftl.TEEID]uint64)
}

// FTL exposes the flash translation layer (secure-world component).
func (r *Runtime) FTL() *ftl.FTL { return r.ftl }

// CMTStats returns the cached-mapping-table hit statistics; 1-HitRate is
// the §6.3 translation miss rate (0.17% in the paper).
func (r *Runtime) CMTStats() (hits, misses int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats.CMTHits, r.stats.CMTMisses
}

// LastBusTransfer returns the ciphertext of the most recent page observed
// on the internal bus — the view a bus-snooping adversary gets.
func (r *Runtime) LastBusTransfer() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.lastBusPage...)
}

// HeapFree returns the unallocated bytes of the TEE-heap region — the
// capacity reclaimed as TEEs terminate.
func (r *Runtime) HeapFree() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heapFree
}

// Live returns how many TEEs currently hold an ID.
func (r *Runtime) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tees)
}

// allocID hands out the lowest free 4-bit ID, skipping IDNone (0).
// Caller holds r.mu.
func (r *Runtime) allocID() (ftl.TEEID, error) {
	for id := ftl.TEEID(1); id <= ftl.MaxTEEID; id++ {
		if !r.inUse[id] {
			r.inUse[id] = true
			return id, nil
		}
	}
	return 0, ErrNoFreeID
}

// allocHeap carves size bytes out of the first free region that fits
// (first fit). Caller holds r.mu.
func (r *Runtime) allocHeap(size uint64) (uint64, bool) {
	for i := range r.freeHeap {
		if r.freeHeap[i].size >= size {
			base := r.freeHeap[i].base
			r.freeHeap[i].base += size
			r.freeHeap[i].size -= size
			if r.freeHeap[i].size == 0 {
				r.freeHeap = append(r.freeHeap[:i], r.freeHeap[i+1:]...)
			}
			r.heapFree -= size
			return base, true
		}
	}
	return 0, false
}

// releaseHeap returns [base, base+size) to the free list, coalescing with
// adjacent regions so long-running multi-tenant churn does not fragment
// the heap area. Caller holds r.mu.
func (r *Runtime) releaseHeap(base, size uint64) {
	if size == 0 {
		return
	}
	i := 0
	for i < len(r.freeHeap) && r.freeHeap[i].base < base {
		i++
	}
	r.freeHeap = append(r.freeHeap, span{})
	copy(r.freeHeap[i+1:], r.freeHeap[i:])
	r.freeHeap[i] = span{base: base, size: size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(r.freeHeap) && r.freeHeap[i].base+r.freeHeap[i].size == r.freeHeap[i+1].base {
		r.freeHeap[i].size += r.freeHeap[i+1].size
		r.freeHeap = append(r.freeHeap[:i+1], r.freeHeap[i+2:]...)
	}
	if i > 0 && r.freeHeap[i-1].base+r.freeHeap[i-1].size == r.freeHeap[i].base {
		r.freeHeap[i-1].size += r.freeHeap[i].size
		r.freeHeap = append(r.freeHeap[:i], r.freeHeap[i+1:]...)
	}
	r.heapFree += size
}

// CreateTEE implements the Table 2 API: allocate an identity, set the ID
// bits of the program's mapping entries, preallocate its heap, and charge
// the 95 µs creation cost. Creation happens in the secure world.
//
// Ownership is enforced at stamping time: an LPA whose entry already
// carries a live TEE's ID bits fails the creation with ErrLPAOwned
// (atomically per entry, via the FTL's claim path), and everything the
// partial creation stamped is rolled back.
func (r *Runtime) CreateTEE(cfg Config) (*TEE, error) {
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = DefaultHeapBytes
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if uint64(len(cfg.Binary)) > r.heapFree {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(cfg.Binary))
	}
	r.now = r.monitor.SwitchTo(r.now, trustzone.Secure)
	id, err := r.allocID()
	if err != nil {
		r.now = r.monitor.SwitchTo(r.now, trustzone.Normal)
		return nil, err
	}
	heapBase, ok := r.allocHeap(cfg.HeapBytes)
	if !ok {
		r.inUse[id] = false
		r.now = r.monitor.SwitchTo(r.now, trustzone.Normal)
		return nil, fmt.Errorf("%w: no room for %d-byte heap", ErrTooLarge, cfg.HeapBytes)
	}
	// SetIDBits: stamp ownership into the mapping table. The rollback
	// releases only the prefix this call stamped, cfg.LPAs[:i]; that
	// prefix held no other owner, so a rejected creation leaves every
	// prior owner's bits intact.
	for i, l := range cfg.LPAs {
		err := r.ftl.ClaimID(l, id)
		if errors.Is(err, ftl.ErrOwned) {
			err = fmt.Errorf("%w: LPA %d", ErrLPAOwned, l)
		}
		if err != nil {
			r.ftl.ReleaseIDs(id, cfg.LPAs[:i])
			r.inUse[id] = false
			r.releaseHeap(heapBase, cfg.HeapBytes)
			r.now = r.monitor.SwitchTo(r.now, trustzone.Normal)
			return nil, fmt.Errorf("tee: SetIDBits(%d): %w", l, err)
		}
	}
	t := &TEE{
		eid:      id,
		state:    StateRunning,
		lpas:     append([]ftl.LPA(nil), cfg.LPAs...),
		heapBase: heapBase,
		heapSize: cfg.HeapBytes,
		binary:   len(cfg.Binary),
	}
	r.tees[id] = t
	r.now += r.costs.Create
	r.now = r.monitor.SwitchTo(r.now, trustzone.Normal)
	r.stats.Created++
	return t, nil
}

// TerminateTEE ends a TEE normally: results are copied into the metadata
// region, ID bits cleared for reuse, resources reclaimed, 58 µs charged.
// If data-path operations are still in flight on other goroutines, the
// ID/heap reclaim is deferred until the last one retires, so the freed
// 4-bit ID can never alias a successor TEE mid-operation.
func (r *Runtime) TerminateTEE(t *TEE, result []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := t.terminate(result); err != nil {
		return err
	}
	r.stats.Terminated++
	if t.readyToReclaim() {
		r.reclaim(t)
	}
	return nil
}

// ThrowOutTEE aborts a TEE after a violation: §4.5 lists access-control
// violations, corrupted TEE memory or metadata, and program exceptions.
func (r *Runtime) ThrowOutTEE(t *TEE, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.throwOut(t, reason)
}

// throwOut is ThrowOutTEE with r.mu held. When the violating operation
// itself is still in flight (the common case: a denied ReadPage), the
// reclaim happens at that operation's retirement, not here.
func (r *Runtime) throwOut(t *TEE, reason string) {
	if !t.abort(reason) {
		return
	}
	r.stats.Aborted++
	if t.readyToReclaim() {
		r.reclaim(t)
	}
}

// reclaim recycles a dead TEE's resources — ID bits, the 4-bit identity,
// the heap region — and charges the Table 5 deletion cost. The ID bits
// are released on the TEE's owned-LPA list, the only entries the runtime
// stamped with its ID, so teardown costs O(pages owned), not O(logical
// pages). Caller holds r.mu and has won the readyToReclaim/opDone claim,
// so no operation can append to the list any more.
func (r *Runtime) reclaim(t *TEE) {
	r.now = r.monitor.SwitchTo(r.now, trustzone.Secure)
	r.ftl.ReleaseIDs(t.eid, t.ownedLPAs())
	r.inUse[t.eid] = false
	delete(r.tees, t.eid)
	r.releaseHeap(t.heapBase, t.heapSize)
	r.now += r.costs.Delete
	r.now = r.monitor.SwitchTo(r.now, trustzone.Normal)
}

// endOp retires a data-path operation, performing the deferred reclaim
// if the TEE died while the operation was in flight.
func (r *Runtime) endOp(t *TEE) {
	if t.opDone() {
		r.mu.Lock()
		r.reclaim(t)
		r.mu.Unlock()
	}
}

// ReadMappingEntry implements the Table 2 API: translate lpa for TEE t
// through the protected-region mapping cache. A cache hit resolves in the
// normal world with a permission check only; a miss pays the world-switch
// round trip while the FTL loads the mapping page (Figure 9 steps 4–5).
// A permission violation aborts the TEE. It also returns, read in the
// same critical section, the runtime clock once the translation is
// charged: the time a data-path read of the page starts at.
func (r *Runtime) ReadMappingEntry(t *TEE, lpa ftl.LPA) (ppa uint64, at sim.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok, msg := t.running(); !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrAborted, msg)
	}
	p, err := r.ftl.TranslateFor(lpa, t.eid)
	if err != nil {
		if errors.Is(err, ftl.ErrAccessDenied) {
			r.throwOut(t, fmt.Sprintf("access-control violation on LPA %d", lpa))
		}
		return 0, 0, err
	}
	if r.cmt.Lookup(lpa) {
		r.stats.CMTHits++
	} else {
		r.stats.CMTMisses++
		// Secure world loads the mapping page from flash and refreshes
		// the protected region.
		r.now = r.monitor.RoundTrip(r.now)
		r.now += r.ftl.Device().Timing().ReadLatency
	}
	return uint64(p), r.now, nil
}

// ReadPage reads lpa on behalf of TEE t through the full §4.6 data path:
// permission-checked translation, flash read, stream-cipher encryption
// across the internal bus, decryption into the TEE's DRAM. Returns the
// plaintext the TEE sees.
//
// The flash access and the cipher work run outside the runtime lock, so
// concurrent TEEs overlap their data paths; ownership is re-validated
// inside the FTL critical section, which also pins the PPA the cipher IV
// binds to. The runtime lock is taken twice: for the translation, and
// once after the cipher to merge the clock, draw the MAC-fault verdict
// and publish the bus page.
func (r *Runtime) ReadPage(t *TEE, lpa ftl.LPA) ([]byte, error) {
	if ok, msg := t.beginOp(); !ok {
		return nil, fmt.Errorf("%w: %s", ErrAborted, msg)
	}
	defer r.endOp(t)
	_, at, err := r.ReadMappingEntry(t, lpa)
	if err != nil {
		return nil, err
	}
	done, ppa, data, err := r.ftl.ReadFor(at, lpa, t.eid)
	if err != nil {
		if errors.Is(err, ftl.ErrAccessDenied) {
			// Ownership changed between translation and read (e.g. the
			// entry was reassigned mid-flight): still a violation.
			r.ThrowOutTEE(t, fmt.Sprintf("access-control violation on LPA %d", lpa))
		}
		return nil, err
	}
	// The flash controller encrypts the page with the PPA-bound IV and
	// only ciphertext crosses the bus: one pass writes payload XOR
	// keystream, then bare keystream over the page's zero tail, into a
	// pooled bus buffer.
	bus := r.busPages.Get().(*[]byte)
	r.cipher.EncryptPageTo(uint32(ppa), *bus, data)
	r.mu.Lock()
	if done > r.now {
		r.now = done
	}
	// The fault plan and the per-TEE MAC ordinals are read and bumped
	// under the lock SetFaultPlan takes.
	macFault := false
	if r.faults != nil {
		n := r.macOps[t.eid]
		r.macOps[t.eid] = n + 1
		macFault = r.faults.MACFault(int(t.eid), n)
	}
	if !macFault {
		r.lastBusPage, *bus = *bus, r.lastBusPage
		r.stats.BusPages++
	}
	r.mu.Unlock()
	if *bus != nil { // nil only for the first page swapped in
		r.busPages.Put(bus)
	}
	if macFault {
		// The page reached DRAM but its MAC does not verify: a typed
		// integrity error, never silent success, and no bus transfer.
		return nil, fmt.Errorf("tee: LPA %d for TEE %d: %w: %w", lpa, t.eid, ErrIntegrity, mee.ErrIntegrity)
	}
	// The DRAM-side engine decrypts with the same keystream, which gives
	// back the page flash stored: the payload, zero-extended to the page.
	// That plaintext, which the caller owns, is the only per-read
	// allocation.
	page := make([]byte, r.ftl.Device().Geometry().PageSize)
	copy(page, data)
	return page, nil
}

// WritePage writes data to lpa on behalf of TEE t. The TEE must own the
// mapping entry (or the page must be unowned intermediate space the
// runtime assigns to it first). The ownership check, the out-of-place
// write, and the adoption stamp are atomic inside the FTL.
func (r *Runtime) WritePage(t *TEE, lpa ftl.LPA, data []byte) error {
	if ok, msg := t.beginOp(); !ok {
		return fmt.Errorf("%w: %s", ErrAborted, msg)
	}
	defer r.endOp(t)
	r.mu.Lock()
	at := r.now
	r.mu.Unlock()
	done, _, adopted, err := r.ftl.WriteFor(at, lpa, data, t.eid)
	if err != nil {
		if errors.Is(err, ftl.ErrAccessDenied) {
			r.ThrowOutTEE(t, fmt.Sprintf("write access-control violation on LPA %d", lpa))
		}
		return err
	}
	if adopted {
		t.addLPA(lpa)
	}
	r.mu.Lock()
	r.cmt.Update(lpa)
	if done > r.now {
		r.now = done
	}
	r.mu.Unlock()
	return nil
}

// CheckMemoryAccess validates a normal-world access (a TEE or any
// in-storage program) against the TrustZone region map — the Figure 6
// permission matrix. Secure-world code does not call this.
func (r *Runtime) CheckMemoryAccess(addr, size uint64, write bool) error {
	return r.space.Check(trustzone.Normal, addr, size, write)
}
