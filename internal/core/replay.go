package core

import (
	"errors"
	"fmt"
	"time"

	"iceclave/internal/cpu"
	"iceclave/internal/dram"
	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/host"
	"iceclave/internal/mee"
	"iceclave/internal/sched"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// Result is the outcome of replaying one workload trace under one mode.
type Result struct {
	Workload string
	Mode     Mode

	// Total is the end-to-end simulated time from the tenant's arrival
	// (t=0, or its scheduled submission instant under
	// Config.ArrivalSchedule) to its completion, including QueueDelay.
	Total sim.Duration
	// QueueDelay is the simulated time the tenant waited for admission
	// between its arrival and its grant — nonzero only under RunMulti
	// with Config.AdmissionSlots / AdmissionTenantSlots caps set. Under
	// an ArrivalSchedule the wait counts from the scheduled arrival, so a
	// late arrival's pre-arrival idle is never queueing delay.
	QueueDelay sim.Duration
	// LoadTime is time stalled on storage I/O (flash and, on the host
	// path, PCIe).
	LoadTime sim.Duration
	// ComputeTime is pure instruction execution.
	ComputeTime sim.Duration
	// SecurityTime is the memory encryption/verification and stream
	// cipher overhead (the "Memory Encrypt" segment of Figure 11).
	SecurityTime sim.Duration
	// TEETime is TEE creation/termination and world-switch overhead.
	TEETime sim.Duration

	// CMTMissRate is the cached-mapping-table miss fraction (§6.3).
	CMTMissRate float64
	// MEE is the memory-protection traffic accounting (Table 6).
	MEE mee.TrafficStats
	// PageCacheHitRate is the controller DRAM data-cache hit fraction.
	PageCacheHitRate float64

	// Retries counts the step-level retries the tenant's replay scheduled
	// after recoverable faults (Config.FaultPlan); zero without a plan.
	Retries int
	// BreakerTrips counts how many times the tenant's circuit breaker
	// opened during the replay.
	BreakerTrips int
	// Failed reports that the replay gave up before draining its trace:
	// the retry budget or offload deadline was exhausted. Total then
	// measures arrival to the failure instant.
	Failed bool
}

// Throughput returns input bytes per simulated second.
func (r Result) Throughput(inputBytes int64) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(inputBytes) / r.Total.Seconds()
}

// SpeedupOver returns other.Total / r.Total: >1 means r is faster.
func (r Result) SpeedupOver(other Result) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(other.Total) / float64(r.Total)
}

// resources is the shared hardware one replay run executes against.
// Tenants contend on everything here. A resources instance is owned by
// exactly one run at a time; between runs it may rest in the resource
// pool keyed by key, and reset recycles it (see pool.go).
type resources struct {
	cfg       Config
	key       poolKey
	dev       *flash.Device
	ftl       *ftl.FTL
	cmt       *ftl.MappingCache
	pageCache *dram.PageCache
	storage   *cpu.Complex
	hostCPU   *cpu.Complex
	pcie      *host.PCIe

	// brk is the per-tenant circuit-breaker set of the stack's last
	// faulty run, recycled with the stack under the reset contract:
	// acquireBreakers resets every breaker before reuse, so trips and
	// open/half-open state never leak across pooled-stack reuse. nil
	// until the first run that breaks circuits.
	brk *sched.Breakers
}

// acquireBreakers returns the stack's breaker set for cfg, recycling the
// pooled set (every breaker reset to closed, zero trips) when its
// configuration matches, and building a fresh set otherwise.
func (r *resources) acquireBreakers(cfg sim.BreakerConfig) *sched.Breakers {
	if r.brk != nil && r.brk.Config() == cfg {
		r.brk.Reset()
		return r.brk
	}
	r.brk = sched.NewBreakers(cfg)
	return r.brk
}

// pageCacheBytes returns the page cache capacity cfg sizes for page size
// ps: the DRAM fraction rounded down to a power-of-two set count (cache
// geometry requires one). The pool keys recyclable page caches by this
// value.
func pageCacheBytes(cfg Config, ps uint64) uint64 {
	sets := uint64(float64(cfg.DRAMBytes)*cfg.PageCacheFraction) / (ps * 8)
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	if sets == 0 {
		sets = 1
	}
	return sets * ps * 8
}

// buildResources assembles a replay stack for cfg over geo, pulling each
// component from its pool when a compatible one is idle (reset on
// acquire) and allocating only what is missing. The page cache — the
// single most expensive allocation in setup — depends only on the
// configuration, so it recycles across workloads whose flash geometries
// differ.
func buildResources(cfg Config, key poolKey) (*resources, error) {
	ps := uint64(key.geo.PageSize)
	df, ok := pool.acquireDev(devKey{key.geo, cfg.FlashTiming})
	if ok {
		df.dev.Reset()
		df.f.Reset()
	} else {
		dev, err := flash.NewDevice(key.geo, cfg.FlashTiming)
		if err != nil {
			return nil, err
		}
		df = devFTL{dev, ftl.New(dev)}
	}
	pcBytes := pageCacheBytes(cfg, ps)
	pc := pool.acquirePage(cacheKey{pcBytes, ps})
	if pc != nil {
		pc.Reset()
	} else {
		pc = dram.NewPageCache(pcBytes, ps)
	}
	cmt := pool.acquireCMT(cacheKey{cfg.CMTBytes, ps})
	if cmt != nil {
		cmt.Reset()
	} else {
		cmt = ftl.NewMappingCache(cfg.CMTBytes, ps)
	}
	return &resources{
		cfg:       cfg,
		key:       key,
		dev:       df.dev,
		ftl:       df.f,
		cmt:       cmt,
		pageCache: pc,
		storage:   cpu.NewComplex(cfg.StorageCore, cfg.StorageCores),
		hostCPU:   cpu.NewComplex(cfg.HostCore, 1),
		pcie:      host.NewPCIe(cfg.PCIe),
	}, nil
}

// reset returns every layer of a recycled stack to its post-construction
// state — the full reset contract of ARCHITECTURE.md: device page states,
// payloads, and erase bookkeeping; FTL mapping table, free pools, and
// in-flight markers; both caches; CPU, and PCIe servers. After reset the
// stack is indistinguishable from buildResources output.
func (r *resources) reset() {
	r.dev.Reset()
	r.ftl.Reset()
	r.cmt.Reset()
	r.pageCache.Reset()
	r.storage.Reset()
	r.hostCPU.Reset()
	r.pcie.Reset()
	if r.brk != nil {
		r.brk.Reset()
	}
}

// sealSetup is the single post-setup reset point between prepopulation
// and the measured replay: it clears device timing reservations and
// device stats AND the FTL's activity counters, so setup writes leak into
// neither layer's reported figures. (Mapping and page state intentionally
// survive — they are the dataset.) It replaces the bare dev.ResetTiming()
// this path used to call, which left FTL-side erase/GC/write counters
// from prepopulation visible to the measured run.
func (r *resources) sealSetup() {
	r.dev.ResetTiming()
	r.ftl.ResetStats()
}

// newResources sizes and populates the device for the given traces: each
// tenant's logical pages are placed at a disjoint LPA offset. The stack
// comes from the resource pool when a matching idle one exists (reset on
// acquire), otherwise from a fresh build.
func newResources(cfg Config, traces []*workload.Trace) (*resources, []uint32, error) {
	start := time.Now()
	stride := int64(0)
	for _, tr := range traces {
		s := int64(tr.SetupPages) + int64(tr.Meter.PagesWritten) + 1024
		if s > stride {
			stride = s
		}
	}
	totalPages := stride * int64(len(traces))
	geo, err := cfg.geometryFor(totalPages)
	if err != nil {
		return nil, nil, err
	}
	key := poolKey{cfg: cfg, geo: geo}
	res := pool.acquire(key)
	if res != nil {
		res.reset()
	} else if res, err = buildResources(cfg, key); err != nil {
		return nil, nil, err
	}
	f := res.ftl
	if f.LogicalPages() < totalPages {
		return nil, nil, fmt.Errorf("core: sized %d logical pages, need %d", f.LogicalPages(), totalPages)
	}
	// Prepopulate every tenant's dataset pages (timing discarded).
	offsets := make([]uint32, len(traces))
	for i, tr := range traces {
		offsets[i] = uint32(int64(i) * stride)
		var at sim.Time
		for p := 0; p < tr.SetupPages; p++ {
			done, err := f.Write(at, ftl.LPA(offsets[i])+ftl.LPA(p), nil)
			if err != nil {
				return nil, nil, fmt.Errorf("core: prepopulate %s page %d: %w", tr.Name, p, err)
			}
			at = done
		}
	}
	res.sealSetup()
	pool.addSetup(time.Since(start).Nanoseconds())
	return res, offsets, nil
}

// tenant replays one trace against shared resources.
type tenant struct {
	res    *resources
	trace  *workload.Trace
	mode   Mode
	offset uint32
	rng    *sim.RNG
	meeM   *mee.TrafficModel

	// arrival is the tenant's scheduled submission instant; zero without
	// an ArrivalSchedule. QueueDelay and Total count from it.
	arrival       sim.Time
	now           sim.Time
	step          int
	lastWrite     sim.Time
	heapPages     uint64
	secMapPending int
	// heapScratch is the reused address buffer chargeMEE fills per step;
	// it grows to the largest step's batch once and never reallocates, so
	// the per-step hot path stays allocation-free.
	heapScratch []uint64

	// Sliding-window prefetcher state: read steps are issued up to
	// PrefetchWindow ahead of consumption, which is what lets a scan
	// saturate all channels instead of serializing on per-page latency.
	readSteps   []int
	readDone    []sim.Time
	nextIssue   int
	nextConsume int
	window      int

	result          Result
	cmtHit, cmtMiss int64

	// Fault-recovery state, armed only when the run has a fault plan.
	// faults is the plan; tenantIdx keys the tenant's MAC-fault stream;
	// macOps counts its MAC verifications. policy is the retry/backoff
	// budget, breaker the per-tenant circuit (shared by same-named
	// tenants), granted the admission instant the offload deadline counts
	// from. retry re-runs just the faulted storage phase (the step's
	// compute and translation charges are never re-applied); attempts
	// counts the current step's failures; readErr records the newest
	// failed prefetch issue, surfaced when consumption catches up.
	faults    *fault.Plan
	tenantIdx int
	macOps    uint64
	policy    sched.RetryPolicy
	breaker   *sim.Breaker
	granted   sim.Time
	retry     func() error
	attempts  int
	readErr   error

	// next is the tenant's step event, bound once by start: every later
	// step and retry reschedules this one callback, so the per-step path
	// allocates no closure.
	next func(sim.Time)
}

func newTenant(res *resources, tr *workload.Trace, mode Mode, offset uint32, seed uint64) *tenant {
	t := &tenant{
		res:    res,
		trace:  tr,
		mode:   mode,
		offset: offset,
		rng:    sim.NewRNG(seed),
		result: Result{Workload: tr.Name, Mode: mode},
	}
	writes := 0
	for i, st := range tr.Steps {
		if st.Op == workload.OpRead {
			t.readSteps = append(t.readSteps, i)
		} else {
			writes++
		}
	}
	t.readDone = make([]sim.Time, len(t.readSteps))
	// Scans prefetch deeply (streaming readahead); transactional traces
	// have dependent point accesses, so their effective queue depth is
	// the modest transaction-level concurrency.
	t.window = res.cfg.PrefetchWindow
	if len(tr.Steps) > 0 && float64(writes)/float64(len(tr.Steps)) > 0.05 {
		t.window = 8
	}
	// The writable intermediate region is sized from the workload's
	// measured working set (hash tables, buckets, output buffers),
	// bounded by the 16 MB TEE heap preallocation.
	t.heapPages = uint64(tr.Meter.Intermediate/mee.PageSize) + 1
	if t.heapPages > maxHeapPages {
		t.heapPages = maxHeapPages
	}
	if mode == ModeIceClave {
		sampling := res.cfg.MEESampling
		if sampling < 1 {
			sampling = 1
		}
		t.meeM = mee.NewTrafficModel(mee.TrafficConfig{
			Mode:              res.cfg.MEEMode,
			CounterCacheBytes: res.cfg.CounterCacheBytes,
			SampleWeight:      sampling,
		})
		// The intermediate/result region of the TEE heap is writable;
		// input pages default to read-only.
		for p := uint64(0); p < t.heapPages; p++ {
			t.meeM.SetPageWritable(heapBasePage+p, true)
		}
	}
	return t
}

// The synthesized TEE-heap address region for intermediate data: up to
// 16 MB of writable pages far above any input page index.
const (
	heapBasePage = uint64(1) << 22
	maxHeapPages = uint64(16<<20) / mee.PageSize
)

// secMapBatch is how many translations the secure-world-mapping variant
// amortizes per world-switch round trip (Figure 5 comparison).
const secMapBatch = 8

// done reports whether the tenant has consumed its whole trace.
func (t *tenant) done() bool { return t.step > len(t.trace.Steps) }

// advance replays the next step. Steps 0..len-1 are storage ops with their
// preceding compute; step len is the tail compute. A non-nil error is a
// recoverable fault from the storage phase; the step's compute and
// translation charges are already applied and t.retry re-runs just the
// faulted remainder.
func (t *tenant) advance() error {
	if t.done() {
		return nil
	}
	var st workload.Step
	tail := t.step == len(t.trace.Steps)
	if tail {
		st = t.trace.Tail
	} else {
		st = t.trace.Steps[t.step]
	}
	t.step++

	// Compute phase: instructions on the mode's CPU, memory-security
	// charges on the step's memory accesses.
	t.computePhase(st)
	if tail {
		// Wait out buffered writes at the end.
		if t.lastWrite > t.now {
			t.result.LoadTime += t.lastWrite - t.now
			t.now = t.lastWrite
		}
		return nil
	}

	// Storage phase. On a fault, arm t.retry with just the fallible half
	// so a retry never re-applies the compute and translation charges.
	lpa := ftl.LPA(t.offset + st.LPA)
	if st.Op == workload.OpRead {
		if err := t.readPhase(st, lpa); err != nil {
			t.retry = t.consumeRead
			return err
		}
		return nil
	}
	if err := t.writePhase(st, lpa); err != nil {
		t.retry = func() error { return t.writePhase(st, lpa) }
		return err
	}
	return nil
}

func (t *tenant) computePhase(st workload.Step) {
	if st.PreInstr > 0 {
		if t.mode.InStorage() {
			// Core-queueing delay under multi-tenancy counts as compute
			// interference.
			_, done := t.res.storage.Run(t.now, st.PreInstr)
			t.result.ComputeTime += done - t.now
			t.now = done
		} else {
			_, done := t.res.hostCPU.Run(t.now, st.PreInstr)
			base := done - t.now
			t.result.ComputeTime += base
			t.now = done
			if t.mode == ModeHostSGX {
				pen := t.res.cfg.SGX.ComputePenalty(base, int64(t.trace.PageSize))
				t.now += pen
				t.result.SecurityTime += pen
			}
		}
	}
	// MEE charges for the compute window's memory traffic (IceClave only).
	if t.meeM != nil && (st.PreMemReads > 0 || st.PreMemWrites > 0) {
		t.chargeMEE(st)
	}
}

// chargeMEE synthesizes addresses for the step's memory accesses and runs
// them (sampled) through the counter-cache model's bulk APIs. Heap traffic
// (hash tables, aggregation state, intermediate buffers) follows a skewed
// distribution — hot structures dominate — and the exposed cost of the
// extra metadata traffic is scaled by MEEExposure because memory-level
// parallelism overlaps most of it with execution.
//
// This is the hottest loop in the whole experiment suite: every replayed
// step funnels its memory accesses through here. The input scan goes
// through AccessSeq (one call per step, run-collapsed metadata probes) and
// the heap batch through AccessMany over a reused scratch slice, so the
// per-step path allocates nothing (TestReplayStepAllocationFree) and pays
// no per-access call or closure overhead. The access stream — addresses,
// order, and RNG draws — is exactly the per-line loop's, so every
// reported statistic is unchanged (mee's differential suite pins it).
func (t *tenant) chargeMEE(st workload.Step) {
	sampling := int64(t.res.cfg.MEESampling)
	if sampling < 1 {
		sampling = 1
	}
	var extra sim.Duration
	// Input page scan: sequential read-only lines at the page's address,
	// every sampling-th line.
	pageLines := int64(t.trace.PageSize / mee.LineSize)
	seqReads := st.PreMemReads
	if seqReads > pageLines {
		seqReads = pageLines
	}
	base := uint64(st.LPA) * uint64(t.trace.PageSize)
	if n := (seqReads + sampling - 1) / sampling; n > 0 {
		extra += t.meeM.AccessSeq(base, n, false, uint64(sampling)*mee.LineSize)
	}
	// Remaining reads and all writes: skewed traffic in the writable
	// intermediate heap. Only the cache-miss fraction of heap accesses
	// reaches DRAM (and thus the MEE); the processor caches absorb the
	// rest (~25% miss). Addresses are drawn read-batch first, then
	// write-batch — the same RNG sequence the per-line loop consumed.
	randReads := (st.PreMemReads - seqReads) / 4
	randWrites := st.PreMemWrites / 4
	nr := (randReads + sampling - 1) / sampling
	nw := (randWrites + sampling - 1) / sampling
	if need := int(nr + nw); cap(t.heapScratch) < need {
		t.heapScratch = make([]uint64, need)
	}
	addrs := t.heapScratch[:nr+nw]
	for i := range addrs {
		page := heapBasePage + uint64(t.rng.Zipf(int64(t.heapPages), 0.85, 0.05))
		addrs[i] = page*mee.PageSize + uint64(t.rng.Intn(mee.LinesPerPage))*mee.LineSize
	}
	extra += t.meeM.AccessMany(addrs[:nr], false)
	extra += t.meeM.AccessMany(addrs[nr:], true)
	exposed := sim.Duration(float64(extra) * t.res.cfg.MEEExposure)
	t.now += exposed
	t.result.SecurityTime += exposed
}

// issueAhead issues queued read steps until the prefetch window is full,
// with arrival time t.now. Completion times are stored for consumption.
// A device read failing with an injected fault stops the issue loop and
// records the error; while it is pending no further issues happen (a
// re-attempt must come from the step-level retry machinery, with its
// backoff and accounting, never as a free side effect of window
// refills). consumeRead surfaces the error once consumption catches up
// to the failed issue, clearing it so the scheduled retry reissues.
func (t *tenant) issueAhead() {
	cfg := t.res.cfg
	if t.readErr != nil {
		return
	}
	for t.nextIssue < len(t.readSteps) && t.nextIssue < t.nextConsume+t.window {
		st := t.trace.Steps[t.readSteps[t.nextIssue]]
		lpa := ftl.LPA(t.offset + st.LPA)
		// Controller page cache: a hit skips the flash read entirely
		// (in-storage modes only — the host path always pulls over PCIe).
		if t.mode.InStorage() && t.res.pageCache.Touch(uint64(lpa), false) {
			t.readDone[t.nextIssue] = t.now
			t.nextIssue++
			continue
		}
		ppa, err := t.res.ftl.Translate(lpa)
		if err != nil {
			// Reads of never-written pages can only be a replay-layer bug.
			panic(fmt.Sprintf("core: replay translate %d: %v", lpa, err))
		}
		done, _, err := t.res.dev.Read(t.now, ppa)
		if err != nil {
			if t.faults == nil || !isFaultErr(err) {
				panic(fmt.Sprintf("core: replay read %d: %v", ppa, err))
			}
			// The Touch above inserted the page on its miss, but the data
			// never arrived — evict it, or the retry would be served a
			// phantom hit from DRAM.
			if t.mode.InStorage() {
				t.res.pageCache.Evict(uint64(lpa))
			}
			t.readErr = fmt.Errorf("core: read step %d: %w", t.readSteps[t.nextIssue], err)
			return
		}
		if t.mode == ModeIceClave {
			// The stream cipher engine decrypts inline at bus rate; its
			// per-page latency extends the read completion but is hidden
			// by prefetching unless the read is on the critical path.
			done += cfg.CipherPerPage
		}
		if !t.mode.InStorage() {
			// Ship to host memory over PCIe with amortized command cost.
			done = t.res.pcie.TransferStream(done, int64(t.trace.PageSize))
		}
		t.readDone[t.nextIssue] = done
		t.nextIssue++
	}
}

// readPhase consumes the next prefetched read, charging translation costs
// and stalling until the data is resident. A fault surfacing from the
// consume half is returned; its retry re-enters consumeRead directly, so
// the translation charges are never re-applied.
func (t *tenant) readPhase(st workload.Step, lpa ftl.LPA) error {
	cfg := t.res.cfg
	// Address translation on the consume path.
	switch {
	case t.mode == ModeIceClave && cfg.SecureWorldMapping:
		// Figure 5 variant: translations must cross into the secure world.
		// The runtime batches a cluster of translations per crossing
		// (eight here), but unlike the protected region the switches sit
		// on the critical path of every flash access.
		t.secMapPending++
		if t.secMapPending >= secMapBatch {
			t.secMapPending = 0
			sw := 2 * cfg.Costs.WorldSwitch
			t.now += sw
			t.result.TEETime += sw
		}
	case t.mode == ModeIceClave:
		if t.res.cmt.Lookup(lpa) {
			t.cmtHit++
		} else {
			t.cmtMiss++
			pen := 2*cfg.Costs.WorldSwitch + cfg.FlashTiming.ReadLatency
			t.now += pen
			t.result.TEETime += pen
		}
	case t.mode == ModeISC:
		// Translation through the (unprotected) cached mapping table;
		// misses fetch the mapping page without world switches.
		if t.res.cmt.Lookup(lpa) {
			t.cmtHit++
		} else {
			t.cmtMiss++
			t.now += cfg.FlashTiming.ReadLatency
			t.result.LoadTime += cfg.FlashTiming.ReadLatency
		}
	}
	return t.consumeRead()
}

// consumeRead is readPhase's fallible half: fill the prefetch window,
// then consume the next read in order. It is also the retry entry for a
// faulted read step. Two fault classes surface here: a device read fault
// recorded by issueAhead once every successfully issued read before it
// has been consumed, and (IceClave mode, with a plan) a deterministic
// MAC-verification failure on the consumed page — the consume cursor is
// not advanced then, so the retry re-verifies the same page under a
// fresh ordinal.
func (t *tenant) consumeRead() error {
	t.issueAhead()
	if t.nextConsume >= t.nextIssue {
		err := t.readErr
		if err == nil {
			panic(fmt.Sprintf("core: replay consume %d with no issued read", t.nextConsume))
		}
		t.readErr = nil
		return err
	}
	done := t.readDone[t.nextConsume]
	if t.faults != nil && t.mode == ModeIceClave {
		n := t.macOps
		t.macOps++
		if t.faults.MACFault(t.tenantIdx, n) {
			if done > t.now {
				t.result.LoadTime += done - t.now
				t.now = done
			}
			return fmt.Errorf("core: read step MAC verification (tenant %d, op %d): %w",
				t.tenantIdx, n, mee.ErrIntegrity)
		}
	}
	t.nextConsume++
	if done > t.now {
		t.result.LoadTime += done - t.now
		t.now = done
	}
	return nil
}

// writePhase performs a buffered page write: the program continues while
// the flash program completes in the background. A write fault (the FTL
// already exhausted its own bad-block re-staging before surfacing one)
// is returned for step-level retry; the retry re-runs the whole phase.
func (t *tenant) writePhase(st workload.Step, lpa ftl.LPA) error {
	if t.mode.InStorage() {
		t.res.pageCache.Touch(uint64(lpa), true)
	}
	done, err := t.res.ftl.Write(t.now, lpa, nil)
	if err != nil {
		if t.faults == nil || !isFaultErr(err) {
			panic(fmt.Sprintf("core: replay write %d: %v", lpa, err))
		}
		return fmt.Errorf("core: write step: %w", err)
	}
	if t.mode == ModeIceClave {
		t.res.cmt.Update(lpa)
	}
	if !t.mode.InStorage() {
		done = t.res.pcie.TransferStreamDown(done, int64(t.trace.PageSize))
	}
	if done > t.lastWrite {
		t.lastWrite = done
	}
	return nil
}

// finish computes the derived statistics.
func (t *tenant) finish() Result {
	t.result.Total = sim.Duration(t.now - t.arrival)
	if t.cmtHit+t.cmtMiss > 0 {
		t.result.CMTMissRate = float64(t.cmtMiss) / float64(t.cmtHit+t.cmtMiss)
	}
	if t.meeM != nil {
		t.result.MEE = t.meeM.Stats()
	}
	t.result.PageCacheHitRate = t.res.pageCache.Stats().HitRate()
	return t.result
}

// Run replays a single trace under mode with the given configuration.
func Run(tr *workload.Trace, mode Mode, cfg Config) (Result, error) {
	results, err := RunMulti([]*workload.Trace{tr}, mode, cfg)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// start opens the tenant's replay at its admission time and replays the
// first step: the clock starts at the grant (so queueing delay is part of
// Total), the wait is measured from the tenant's arrival, and the Table 5
// creation cost is charged. It also binds the step event every later step
// reuses.
func (t *tenant) start(granted sim.Time, eng *sim.Engine, adm *sched.VirtualAdmission, ticket *sim.Ticket) {
	t.now = granted
	t.granted = granted
	t.result.QueueDelay = sim.Duration(granted - t.arrival)
	if t.mode == ModeIceClave {
		t.now += t.res.cfg.Costs.Create
		t.result.TEETime += t.res.cfg.Costs.Create
	}
	t.next = func(sim.Time) { t.stepEvent(eng, adm, ticket) }
	t.stepEvent(eng, adm, ticket)
}

// isFaultErr reports whether err belongs to the recoverable fault
// taxonomy the replay retries: injected flash faults, a device filled by
// block/die retirement, or a page-integrity failure. Anything else is a
// replay-layer bug and keeps the pre-fault panic behaviour.
func isFaultErr(err error) bool {
	return errors.Is(err, flash.ErrTransientRead) ||
		errors.Is(err, flash.ErrProgramFail) ||
		errors.Is(err, flash.ErrDieDead) ||
		errors.Is(err, ftl.ErrDeviceFull) ||
		errors.Is(err, mee.ErrIntegrity)
}

// retryPolicy resolves the config's fault knobs into the effective
// per-step retry/backoff budget.
func retryPolicy(cfg Config) sched.RetryPolicy {
	p := sched.RetryPolicy{
		MaxRetries: cfg.FaultRetryLimit,
		Backoff:    cfg.FaultBackoff,
		BackoffCap: cfg.FaultBackoffCap,
		Timeout:    cfg.OffloadTimeout,
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 16
	} else if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.Backoff == 0 {
		p.Backoff = 100 * sim.Microsecond
	}
	if p.BackoffCap == 0 {
		p.BackoffCap = 2 * sim.Millisecond
	}
	return p
}

// faultEvent handles a recoverable fault from the current step: count
// the failure against the tenant's circuit breaker, then either
// schedule a capped-exponential-backoff retry on the virtual clock
// (parked until the half-open probe window when the circuit is open) or
// fail the offload once the step's retry budget or the offload deadline
// is exhausted.
func (t *tenant) faultEvent(eng *sim.Engine, adm *sched.VirtualAdmission, ticket *sim.Ticket) {
	t.attempts++
	if t.breaker != nil && t.breaker.Failure(t.now) {
		t.result.BreakerTrips++
	}
	deadlineHit := t.policy.Timeout > 0 && t.now >= t.granted+sim.Time(t.policy.Timeout)
	if t.attempts > t.policy.MaxRetries || deadlineHit {
		t.fail(adm, ticket)
		return
	}
	t.result.Retries++
	next := t.now + t.policy.BackoffFor(t.attempts-1)
	if t.breaker != nil {
		if until, err := t.breaker.Allow(next); err != nil {
			// Circuit open past the backoff: shed until the cooldown ends,
			// and make the parked retry the half-open probe.
			next = until
			t.breaker.Allow(next)
		}
	}
	t.now = next
	eng.At(t.now, t.next)
}

// fail abandons the offload: the tenant stops consuming its trace,
// charges teardown, and releases its admission slot so queued tenants
// still get their grants — graceful degradation, never a stuck engine.
func (t *tenant) fail(adm *sched.VirtualAdmission, ticket *sim.Ticket) {
	t.result.Failed = true
	t.retry = nil
	t.step = len(t.trace.Steps) + 2 // past done: never advances again
	if t.mode == ModeIceClave {
		t.now += t.res.cfg.Costs.Delete
		t.result.TEETime += t.res.cfg.Costs.Delete
	}
	adm.Release(ticket, t.now)
}

// stepEvent is one engine event: replay one step, then reschedule at the
// tenant's advanced clock. A drained trace charges the deletion cost and
// releases the admission slot — which is what lets a queued tenant's grant
// fire at this tenant's virtual completion time.
func (t *tenant) stepEvent(eng *sim.Engine, adm *sched.VirtualAdmission, ticket *sim.Ticket) {
	if t.done() {
		if t.mode == ModeIceClave {
			t.now += t.res.cfg.Costs.Delete
			t.result.TEETime += t.res.cfg.Costs.Delete
		}
		adm.Release(ticket, t.now)
		return
	}
	var err error
	if op := t.retry; op != nil {
		// Retry just the faulted storage phase; the closure stays armed
		// until it succeeds, so repeated failures re-run the same half.
		if err = op(); err == nil {
			t.retry = nil
		}
	} else {
		err = t.advance()
	}
	if err != nil {
		t.faultEvent(eng, adm, ticket)
		return
	}
	if t.attempts > 0 {
		t.attempts = 0
		if t.breaker != nil {
			t.breaker.Success(t.now)
		}
	}
	eng.At(t.now, t.next)
}

// RunMulti replays several traces concurrently against shared hardware —
// the multi-tenant experiments of Figures 17 and 18. One discrete-event
// virtual-time backbone spans the whole run: tenants submit to the sched
// package's simulated-time admission gate, grants and replay steps are
// engine events in virtual-time order, and tenants contend for channels,
// dies, cores, the mapping cache, and the page cache through the same
// clock. With admission caps configured, the wait for a slot appears in
// each Result's QueueDelay (and in its Total).
//
// Submission timing is closed-loop by default — every tenant submits at
// time zero with PriorityNormal, the saturation regime. A non-nil
// cfg.ArrivalSchedule switches to open-loop trace playback: tenant i
// enters the gate at Submissions[i].At in its entry's priority band, with
// its entry's tenant key, and its QueueDelay/Total count from that
// arrival instant.
func RunMulti(traces []*workload.Trace, mode Mode, cfg Config) ([]Result, error) {
	out, _, err := RunMultiStats(traces, mode, cfg)
	return out, err
}

// RunStats are whole-run statistics that have no per-tenant home.
type RunStats struct {
	// AdmissionTicks counts the admission gate's batched grant-scheduling
	// passes (zero in per-release mode) — the firmware-work side of the
	// quantum/queue-delay trade the Timing 1 table plots.
	AdmissionTicks int64
	// FTL snapshots the run's FTL activity — under a fault plan this is
	// where device-level recovery shows up (ReadRetries, ProgramFails,
	// BadBlocks, DeadDies).
	FTL ftl.Stats
	// Flash snapshots the device counters, including the injected
	// ReadFaults/ProgramFaults.
	Flash flash.Stats
}

// RunMultiStats is RunMulti returning whole-run statistics alongside the
// per-tenant Results.
func RunMultiStats(traces []*workload.Trace, mode Mode, cfg Config) ([]Result, RunStats, error) {
	if cfg.ArrivalSchedule != nil && len(cfg.ArrivalSchedule.Submissions) != len(traces) {
		return nil, RunStats{}, fmt.Errorf("core: arrival schedule has %d submissions for %d traces",
			len(cfg.ArrivalSchedule.Submissions), len(traces))
	}
	res, offsets, err := newResources(cfg, traces)
	if err != nil {
		return nil, RunStats{}, err
	}
	// Fault injection attaches only for a non-zero plan: a nil plan — or a
	// plan whose rates are all zero and die list empty — leaves the device
	// seam nil and every tenant's faults pointer nil, so the replay takes
	// the exact fault-free code path bit for bit.
	plan := cfg.FaultPlan
	injecting := !plan.Zero()
	var breakers *sched.Breakers
	if injecting {
		// Install-time validation: a plan scripting deaths outside the
		// device geometry is a malformed scenario (it would silently
		// never fire), rejected here with a typed *fault.PlanError.
		geo := res.dev.Geometry()
		inj, err := fault.NewInjectorFor(plan, geo.Channels, geo.DiesPerChannel())
		if err != nil {
			pool.release(res)
			return nil, RunStats{}, err
		}
		res.dev.SetInjector(inj)
		if cfg.BreakerFailures >= 0 {
			breakers = res.acquireBreakers(sim.BreakerConfig{
				Failures: cfg.BreakerFailures,
				Cooldown: cfg.BreakerCooldown,
			})
		}
	}
	eng := &sim.Engine{}
	vcfg := sched.VirtualConfig{
		MaxInFlight:       cfg.AdmissionSlots,
		TenantMaxInFlight: cfg.AdmissionTenantSlots,
		GrantQuantum:      cfg.AdmissionQuantum,
		GrantBatch:        cfg.AdmissionBatch,
	}
	if cfg.AdmissionQuantum > 0 && cfg.AdmissionQuantumFloor > 0 {
		floor := cfg.AdmissionQuantumFloor
		vcfg.GrantAdaptive = func(queued int, base sim.Duration) sim.Duration {
			q := base / sim.Duration(1+queued)
			if q < floor {
				q = floor
			}
			return q
		}
	}
	adm := sched.NewVirtualAdmission(eng, vcfg)
	tenants := make([]*tenant, len(traces))
	for i, tr := range traces {
		tn := newTenant(res, tr, mode, offsets[i], cfg.Seed+uint64(i)*7919)
		if cfg.ArrivalSchedule != nil {
			tn.arrival = cfg.ArrivalSchedule.Submissions[i].At
		}
		if injecting {
			tn.faults = plan
			tn.tenantIdx = i
			tn.policy = retryPolicy(cfg)
			if breakers != nil {
				key := tr.Name
				if cfg.ArrivalSchedule != nil && cfg.ArrivalSchedule.Submissions[i].Tenant != "" {
					key = cfg.ArrivalSchedule.Submissions[i].Tenant
				}
				tn.breaker = breakers.For(key)
			}
		}
		tenants[i] = tn
	}
	if cfg.ArrivalSchedule == nil {
		for i, tr := range traces {
			tn := tenants[i]
			var ticket *sim.Ticket
			ticket = adm.Submit(0, tr.Name, sched.PriorityNormal, func(granted sim.Time) {
				tn.start(granted, eng, adm, ticket)
			})
		}
	} else {
		entries := make([]sched.ScheduledArrival, len(traces))
		tickets := make([]*sim.Ticket, len(traces))
		for i, tr := range traces {
			sub := cfg.ArrivalSchedule.Submissions[i]
			tn := tenants[i]
			key := sub.Tenant
			if key == "" {
				key = tr.Name
			}
			i := i
			entries[i] = sched.ScheduledArrival{
				At:       sub.At,
				Tenant:   key,
				Priority: sched.Priority(sub.Band),
				Fn: func(granted sim.Time) {
					tn.start(granted, eng, adm, tickets[i])
				},
			}
		}
		// Grants fire only once the engine runs, so the tickets slice is
		// fully populated before any callback dereferences it.
		copy(tickets, adm.Playback(entries))
	}
	eng.Run()
	stats := RunStats{
		AdmissionTicks: adm.Ticks(),
		FTL:            res.ftl.Stats(),
		Flash:          res.dev.Snapshot(),
	}
	out := make([]Result, len(tenants))
	for i, tn := range tenants {
		out[i] = tn.finish()
	}
	// All derived statistics are extracted; detach the injector so a
	// recycled stack never carries a fault seam into a fault-free run.
	if injecting {
		res.dev.SetInjector(nil)
	}
	pool.release(res)
	return out, stats, nil
}
