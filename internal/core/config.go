// Package core composes the IceClave system model: the flash device, FTL,
// DRAM, MEE, stream cipher, TrustZone runtime, and host models, plus the
// trace-replay engine that executes recorded workloads under the four
// evaluation modes (Host, Host+SGX, ISC, IceClave) and their variants.
//
// Concurrency contract: a composed system model and every replay over it
// are confined to one goroutine; Config and Result are plain values.
// Parallelism comes from running independent replays, each over its own
// system instance (see experiments.Suite.SetWorkers), never from sharing
// one replay across goroutines.
package core

import (
	"fmt"

	"iceclave/internal/cpu"
	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/trace"
)

// Mode is an execution scheme from the §6.1 comparison.
type Mode int

// Execution modes.
const (
	// ModeHost loads data over PCIe and computes on the host CPU.
	ModeHost Mode = iota
	// ModeHostSGX is ModeHost with the queries inside an SGX enclave.
	ModeHostSGX
	// ModeISC computes on the storage processor without any TEE.
	ModeISC
	// ModeIceClave is the full system: in-storage TEE with protected
	// mapping table, hybrid-counter MEE, and the stream cipher engine.
	ModeIceClave
)

// String names the mode as the figures do.
func (m Mode) String() string {
	switch m {
	case ModeHost:
		return "Host"
	case ModeHostSGX:
		return "Host+SGX"
	case ModeISC:
		return "ISC"
	default:
		return "IceClave"
	}
}

// InStorage reports whether the mode computes inside the SSD.
func (m Mode) InStorage() bool { return m == ModeISC || m == ModeIceClave }

// Config is what varies across the evaluation: the Table 3 device knobs
// the sensitivity figures sweep (channels, flash timing, DRAM, the
// in-storage core), the Figure 5 and Figure 8 protection variants, and
// the multi-tenant scenario (device floor, admission, arrivals, faults).
// Everything else a replay uses is a package constant below or a default
// of its own package: cpu.HostI7, host.DefaultPCIeConfig(),
// host.DefaultSGXConfig() and tee.DefaultCosts().
type Config struct {
	// Channels is the flash channel count (Figure 12/13 sweep).
	Channels int
	// FlashTiming holds tRD/tPROG/tERS and per-channel bandwidth
	// (Figure 14 sweeps ReadLatency).
	FlashTiming flash.Timing
	// DRAMBytes is controller DRAM capacity (Figure 16 sweep); half of it
	// caches flash pages for in-storage programs.
	DRAMBytes uint64
	// StorageCore is the in-storage processor (Figure 15 sweep).
	StorageCore cpu.Core
	// MEEMode selects the DRAM protection scheme in IceClave mode
	// (Figure 8 compares ModeHybrid against ModeSplit64 and ModeNone).
	MEEMode mee.Mode
	// SecureWorldMapping places the FTL mapping table in the secure world
	// instead of the protected region, charging a world-switch round trip
	// per translation — the Figure 5 comparison point.
	SecureWorldMapping bool
	// MinFlashPages forces the auto-sized device to at least this many
	// pages. Multi-tenant experiments set it so solo and collocated runs
	// execute on identical hardware.
	MinFlashPages int64
	// AdmissionSlots caps how many tenants replay concurrently in
	// RunMulti. Tenants beyond the cap queue in simulated time behind the
	// sched package's virtual-time admission gate (sched.Gate), and the
	// wait is reported in Result.QueueDelay. 0 disables admission control:
	// every tenant is granted at its arrival instant.
	AdmissionSlots int
	// ArrivalSchedule, when non-nil, plays a trace back through RunMulti:
	// tenant i arrives at Submissions[i].At with that entry's priority
	// band (0..2, low to high) and tenant key (the trace name when the
	// entry's key is empty; tenants sharing a key share a circuit breaker
	// under a FaultPlan), instead of every tenant at t=0 with
	// PriorityNormal. The schedule must have exactly one submission per
	// trace. Each tenant's QueueDelay and Total then count from its
	// scheduled arrival — the pre-arrival idle of a late arrival is not
	// queueing delay. A pointer keeps Config comparable for the
	// experiment suite's memo keys: two configs share a key only when they
	// share the schedule instance, which is also the only way the replays
	// are guaranteed identical.
	ArrivalSchedule *trace.Schedule
	// FaultPlan, when non-nil, injects the plan's deterministic faults
	// into the replay: flash read/program faults and die deaths through
	// the device's injection seam, MAC-verification failures on the
	// IceClave read path, with recovery (FTL retries and bad-block
	// remapping, per-step retry with capped exponential backoff, a
	// circuit breaker per tenant key) threaded through every layer. The
	// zero value (nil) injects nothing and reproduces the fault-free
	// replay bit-identically — as does a non-nil plan whose rates are all
	// zero. Like ArrivalSchedule, a pointer keeps Config comparable for
	// the experiment suite's memo keys: two configs share a key only when
	// they share the plan instance.
	FaultPlan *fault.Plan
}

// Device and calibration constants every replay uses. The exported ones
// are printed by the experiment tables or read by the fleet's migration
// cost.
const (
	// StorageCores is the controller core count (Table 3); tenants beyond
	// it queue for a core.
	StorageCores = 4
	// CounterCacheBytes is the MEE metadata cache (128 KB, §5).
	CounterCacheBytes = 128 << 10
	// CipherPerPage is the stream-cipher engine latency per 4 KB page
	// (the 64-bit-per-cycle Trivium engine of §5: ~512 cycles).
	CipherPerPage = 640 * sim.Nanosecond
	// MEESampling drives the counter-cache model with every Nth memory
	// access and scales the result, bounding replay cost.
	MEESampling = 8

	// cmtBytes is the protected-region mapping cache capacity.
	cmtBytes = 8 << 20
	// meeExposure is the fraction of the extra metadata-traffic time that
	// lands on the critical path; the rest is hidden by memory-level
	// parallelism. At 0.5, Figure 11 prints IceClave's overhead over ISC
	// as 4.61%, against the paper's 7.6%; ROADMAP direction 7 records the
	// gap.
	meeExposure = 0.5
	// prefetchWindow is the number of outstanding flash reads the
	// in-storage runtime keeps in flight for a scan.
	prefetchWindow = 256
	// addrSeed feeds address-synthesis randomness; tenant i draws from
	// addrSeed + 7919*i.
	addrSeed = 1
)

// DefaultConfig returns the Table 3 device.
func DefaultConfig() Config {
	return Config{
		Channels:    8,
		FlashTiming: flash.DefaultTiming(),
		DRAMBytes:   4 << 30,
		StorageCore: cpu.CortexA72,
		MEEMode:     mee.ModeHybrid,
	}
}

// geometryFor builds a scaled flash geometry with the configured channel
// count and at least minPages pages (plus over-provisioning headroom).
func (c Config) geometryFor(minPages int64) (flash.Geometry, error) {
	if c.MinFlashPages > minPages {
		minPages = c.MinFlashPages
	}
	g := flash.Geometry{
		Channels:        c.Channels,
		ChipsPerChannel: 4,
		DiesPerChip:     4,
		PlanesPerDie:    2,
		PagesPerBlock:   64,
		PageSize:        4096,
		BlocksPerPlane:  1,
	}
	planes := int64(g.Planes())
	needed := minPages*2 + planes*int64(g.PagesPerBlock)*4 // 2x headroom + GC slack
	perPlane := (needed + planes - 1) / planes
	g.BlocksPerPlane = int((perPlane + int64(g.PagesPerBlock) - 1) / int64(g.PagesPerBlock))
	if g.BlocksPerPlane < 4 {
		g.BlocksPerPlane = 4
	}
	if err := g.Validate(); err != nil {
		return g, fmt.Errorf("core: cannot size flash for %d pages: %w", minPages, err)
	}
	return g, nil
}
