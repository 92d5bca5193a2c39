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
	"iceclave/internal/host"
	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/tee"
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

// Config is the full simulator configuration: Table 3 defaults plus the
// calibration constants documented on each field.
type Config struct {
	// Channels is the flash channel count (Figure 12/13 sweep).
	Channels int
	// FlashTiming holds tRD/tPROG/tERS and per-channel bandwidth
	// (Figure 14 sweeps ReadLatency).
	FlashTiming flash.Timing
	// DRAMBytes is controller DRAM capacity (Figure 16 sweep).
	DRAMBytes uint64
	// PageCacheFraction is the share of controller DRAM caching flash
	// pages for in-storage programs.
	PageCacheFraction float64
	// StorageCore is the in-storage processor (Figure 15 sweep).
	StorageCore cpu.Core
	// StorageCores is the controller core count for multi-tenancy.
	StorageCores int
	// HostCore is the host processor.
	HostCore cpu.Core
	// PCIe is the external path model.
	PCIe host.PCIeConfig
	// SGX is the Host+SGX cost model.
	SGX host.SGXConfig
	// Costs are the Table 5 TEE constants.
	Costs tee.Costs
	// MEEMode selects the DRAM protection scheme in IceClave mode
	// (Figure 8 compares ModeHybrid against ModeSplit64 and ModeNone).
	MEEMode mee.Mode
	// CounterCacheBytes is the MEE metadata cache (128 KB, §5).
	CounterCacheBytes uint64
	// CMTBytes is the protected-region mapping cache capacity.
	CMTBytes uint64
	// SecureWorldMapping places the FTL mapping table in the secure world
	// instead of the protected region, charging a world-switch round trip
	// per translation — the Figure 5 comparison point.
	SecureWorldMapping bool
	// CipherPerPage is the stream-cipher engine latency per 4 KB page
	// (the 64-bit-per-cycle Trivium engine of §5: ~512 cycles).
	CipherPerPage sim.Duration
	// MEESampling drives the counter-cache model with every Nth memory
	// access and scales the result, bounding replay cost. 1 = exact.
	MEESampling int
	// MEEExposure is the fraction of the extra metadata-traffic time that
	// lands on the critical path; the rest is hidden by memory-level
	// parallelism. Calibrated so IceClave's overhead vs ISC averages in
	// the paper's 7.6% band.
	MEEExposure float64
	// PrefetchWindow is the number of outstanding flash reads the
	// in-storage runtime keeps in flight.
	PrefetchWindow int
	// MinFlashPages forces the auto-sized device to at least this many
	// pages. Multi-tenant experiments set it so solo and collocated runs
	// execute on identical hardware.
	MinFlashPages int64
	// AdmissionSlots caps how many tenants replay concurrently in
	// RunMulti. Tenants beyond the cap queue in simulated time behind the
	// sched package's virtual admission gate, and the wait is reported in
	// Result.QueueDelay. 0 disables admission control — every tenant is
	// admitted at time zero, the pre-backbone semantics.
	AdmissionSlots int
	// AdmissionTenantSlots caps concurrently admitted replays per tenant
	// (trace) name, the virtual-time form of sched.Config.
	// TenantMaxInFlight. 0 means unlimited.
	AdmissionTenantSlots int
	// AdmissionQuantum, when positive, switches RunMulti's admission gate
	// to batched grants: queued tenants are admitted only at multiples of
	// the quantum on the virtual clock (controller firmware amortizing
	// scheduling work over a periodic timer), instead of a dispatch pass
	// on every release. 0 keeps per-release dispatch.
	AdmissionQuantum sim.Duration
	// AdmissionBatch caps tenants admitted per quantum tick; 0 means the
	// tick admits everything capacity allows. Ignored unless
	// AdmissionQuantum is set.
	AdmissionBatch int
	// AdmissionQuantumFloor, when positive (and AdmissionQuantum is set),
	// makes the batched-grant tick adaptive: each armed tick uses period
	// AdmissionQuantum/(1+queued), clamped below by this floor — the gate
	// schedules lazily when idle and approaches per-release latency as the
	// queue deepens. A scalar knob (not a hook) keeps Config comparable
	// for the experiment suite's memo keys; RunMulti translates it into
	// the sim layer's AdaptiveQuantum policy hook.
	AdmissionQuantumFloor sim.Duration
	// ArrivalSchedule, when non-nil, switches RunMulti to open-loop
	// playback: tenant i submits at Submissions[i].At with that entry's
	// priority band and tenant key (the trace name when the entry's key is
	// empty), instead of every tenant at t=0 with PriorityNormal. The
	// schedule must have exactly one submission per trace. Each tenant's
	// QueueDelay and Total then count from its scheduled arrival — the
	// pre-arrival idle of a late arrival is not queueing delay. The zero
	// value (nil) reproduces the t=0 semantics exactly. A pointer keeps
	// Config comparable for the experiment suite's memo keys: two configs
	// share a key only when they share the schedule instance, which is
	// also the only way the replays are guaranteed identical.
	ArrivalSchedule *trace.Schedule
	// FaultPlan, when non-nil, injects the plan's deterministic faults
	// into the replay: flash read/program faults and die deaths through
	// the device's injection seam, MAC-verification failures on the
	// IceClave read path, with recovery (FTL retries and bad-block
	// remapping, per-step retry/backoff, per-tenant circuit breaking)
	// threaded through every layer. The zero value (nil) injects nothing
	// and reproduces the fault-free replay bit-identically — as does a
	// non-nil plan whose rates are all zero. Like ArrivalSchedule, a
	// pointer keeps Config comparable for the experiment suite's memo
	// keys: two configs share a key only when they share the plan
	// instance.
	FaultPlan *fault.Plan
	// FaultRetryLimit bounds the retries per offload step before the
	// tenant's replay fails permanently. 0 means the default (16); < 0
	// disables step retries entirely.
	FaultRetryLimit int
	// FaultBackoff is the virtual-time delay before a failed step's first
	// retry; each subsequent retry doubles it, capped at FaultBackoffCap.
	// 0 means the default (100 µs).
	FaultBackoff sim.Duration
	// FaultBackoffCap caps the exponential backoff growth. 0 means the
	// default (2 ms).
	FaultBackoffCap sim.Duration
	// BreakerFailures is the consecutive-failure count that trips a
	// tenant's circuit breaker. 0 means the default (5); < 0 disables
	// circuit breaking.
	BreakerFailures int
	// BreakerCooldown is the virtual time a tripped breaker stays open
	// before granting its half-open probe. 0 means the default (5 ms).
	BreakerCooldown sim.Duration
	// OffloadTimeout is the per-tenant virtual deadline measured from the
	// offload's admission grant: a fault observed past it fails the
	// offload instead of retrying. 0 means no deadline. It is only
	// consulted on the failure path, so a zero-fault replay never
	// observes it.
	OffloadTimeout sim.Duration
	// Seed feeds address-synthesis randomness.
	Seed uint64
}

// DefaultConfig returns the Table 3 device with calibrated host-side
// constants.
func DefaultConfig() Config {
	return Config{
		Channels:          8,
		FlashTiming:       flash.DefaultTiming(),
		DRAMBytes:         4 << 30,
		PageCacheFraction: 0.5,
		StorageCore:       cpu.CortexA72,
		StorageCores:      4,
		HostCore:          cpu.HostI7,
		PCIe:              host.DefaultPCIeConfig(),
		SGX:               host.DefaultSGXConfig(),
		Costs:             tee.DefaultCosts(),
		MEEMode:           mee.ModeHybrid,
		CounterCacheBytes: 128 << 10,
		CMTBytes:          8 << 20,
		CipherPerPage:     640 * sim.Nanosecond,
		MEESampling:       8,
		MEEExposure:       0.5,
		PrefetchWindow:    256,
		Seed:              1,
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
