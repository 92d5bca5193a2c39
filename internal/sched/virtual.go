package sched

import "iceclave/internal/sim"

// This file is the scheduler's simulated-time mode. The goroutine pool in
// sched.go meters admission control in wall-clock time; VirtualAdmission
// expresses the same policy — per-tenant in-flight caps, a global cap,
// FIFO dispatch within three priority bands, work-conserving skip of
// capped tenants — as discrete events on a sim.Engine, so queueing delay
// from admission lands on the simulated clock that the flash, CPU, and
// memory models already share. core.RunMulti threads this mode into the
// multi-tenant replay loop; the Figure 17/18-style timing tables read the
// delay back out of core.Result.QueueDelay.
//
// Concurrency contract: unlike Scheduler, VirtualAdmission follows the sim
// package's single-goroutine rule — it is part of a simulation, not a
// thread pool.

// VirtualConfig tunes the simulated-time admission gate. The zero value
// means no admission control at all (every tenant starts immediately),
// which reproduces the pre-backbone replay semantics.
type VirtualConfig struct {
	// MaxInFlight caps tenants replaying concurrently across the device
	// (the 15 live TEE IDs of §4.3, or a policy choice below it).
	// Non-positive means unlimited.
	MaxInFlight int
	// TenantMaxInFlight caps concurrently running jobs per tenant key.
	// Non-positive means unlimited.
	TenantMaxInFlight int
	// GrantQuantum, when positive, switches the gate from per-release
	// dispatch to batched grants: admissions fire only at multiples of
	// the quantum on the virtual clock, modelling controller firmware
	// that amortizes scheduling over a periodic timer instead of taking
	// a scheduling pass on every completion.
	GrantQuantum sim.Duration
	// GrantBatch caps how many queued tenants one quantum tick admits;
	// non-positive means the tick admits everything capacity allows.
	// Ignored unless GrantQuantum is set.
	GrantBatch int
	// GrantAdaptive, when non-nil, makes the batched-grant tick
	// load-sensitive: each armed tick uses the period this hook returns
	// for the current queue depth and base quantum (non-positive returns
	// fall back to GrantQuantum). Ignored unless GrantQuantum is set.
	GrantAdaptive func(queued int, base sim.Duration) sim.Duration
}

// VirtualAdmission is the sim-backed admission resource: Submit queues a
// tenant job at a virtual instant, the grant callback fires as an engine
// event when capacity allows, and Release returns the slot at the job's
// virtual completion time.
type VirtualAdmission struct {
	adm *sim.Admission
}

// NewVirtualAdmission builds the gate over eng with the scheduler's three
// priority bands.
func NewVirtualAdmission(eng *sim.Engine, cfg VirtualConfig) *VirtualAdmission {
	return &VirtualAdmission{
		adm: sim.NewAdmissionWithPolicy(eng, int(numPriorities), sim.Policy{
			Slots:           cfg.MaxInFlight,
			PerKey:          cfg.TenantMaxInFlight,
			Quantum:         cfg.GrantQuantum,
			Batch:           cfg.GrantBatch,
			AdaptiveQuantum: cfg.GrantAdaptive,
		}),
	}
}

// Submit enqueues one job for tenant at virtual time at; fn runs when the
// job is admitted, with the grant time as its argument. Like Scheduler,
// higher priorities dispatch first and tenants at their cap are skipped,
// not waited on.
func (v *VirtualAdmission) Submit(at sim.Time, tenant string, prio Priority, fn func(granted sim.Time)) *sim.Ticket {
	if prio < PriorityLow || prio >= numPriorities {
		prio = PriorityNormal
	}
	return v.adm.Submit(at, tenant, int(prio), fn)
}

// ScheduledArrival is one entry of a fixed open-loop submission schedule:
// the virtual instant the tenant's request reaches the gate, plus the
// tenant key, priority, and grant callback Submit would take. Out-of-range
// priorities clamp to PriorityNormal, matching Submit.
type ScheduledArrival struct {
	At       sim.Time
	Tenant   string
	Priority Priority
	Fn       func(granted sim.Time)
}

// Playback is the gate's open-loop mode: each entry enters the gate as an
// engine event at its scheduled virtual time (rather than when the caller
// gets around to Submit), and entries sharing an instant are granted by
// one dispatch pass — highest band first — so simultaneous arrivals
// contend by priority, not schedule position. Tickets are returned in
// entry order; their Waited and the gate's statistics count from each
// scheduled arrival, never including pre-arrival idle. This is how
// core.RunMulti replays a trace.Schedule.
func (v *VirtualAdmission) Playback(entries []ScheduledArrival) []*sim.Ticket {
	arrivals := make([]sim.Arrival, len(entries))
	for i, e := range entries {
		p := e.Priority
		if p < PriorityLow || p >= numPriorities {
			p = PriorityNormal
		}
		arrivals[i] = sim.Arrival{At: e.At, Key: e.Tenant, Band: int(p), Fn: e.Fn}
	}
	return v.adm.Playback(arrivals)
}

// Release retires a granted job at its virtual completion time, admitting
// whatever the freed capacity now allows.
func (v *VirtualAdmission) Release(t *sim.Ticket, at sim.Time) { v.adm.Release(t, at) }

// Pending returns the queued (not yet admitted) job count.
func (v *VirtualAdmission) Pending() int { return v.adm.Pending() }

// Running returns the admitted, unreleased job count.
func (v *VirtualAdmission) Running() int { return v.adm.Running() }

// Waited returns the total simulated queueing delay across admitted jobs.
func (v *VirtualAdmission) Waited() sim.Duration { return v.adm.Waited() }

// Ticks returns how many batched scheduling passes have run (zero in
// per-release mode).
func (v *VirtualAdmission) Ticks() int64 { return v.adm.Ticks() }
