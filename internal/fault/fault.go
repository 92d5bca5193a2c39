// Package fault provides seeded, deterministic fault plans for the
// simulated SSD stack. A Plan describes per-operation probabilistic
// faults (transient read errors, program failures, MAC-verification
// failures) plus scripted one-shot faults (a die dying at a given
// virtual time). Decisions are pure functions of (seed, site, ordinal):
// the plan keeps no mutable state, so the same plan replays identically
// across fresh and pooled stacks, and a *Plan can live inside
// core.Config without breaking comparability.
package fault

import (
	"errors"
	"fmt"
	"sync"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// Kind names an injection site class. It is folded into the decision
// hash so read, program, and MAC streams with the same ordinal do not
// correlate.
type Kind uint8

const (
	// KindRead is the per-read transient-fault stream.
	KindRead Kind = iota
	// KindProgram is the per-program failure stream.
	KindProgram
	// KindErase is reserved for per-erase faults (currently only die
	// deaths affect erases).
	KindErase
	// KindMAC is the per-tenant MAC-verification failure stream.
	KindMAC
)

// DieDeath scripts a one-shot permanent failure: all operations on
// (Channel, Die) at or after virtual time At fail with
// flash.ErrDieDead.
type DieDeath struct {
	Channel int
	Die     int
	At      sim.Time
}

// Plan is a complete fault scenario. The zero value injects nothing.
// Probabilities are per-operation in [0, 1]. Plans are immutable after
// construction; share one pointer across runs so config memoization
// keys stay identical.
type Plan struct {
	// Seed keys every probabilistic decision. Two plans with the same
	// rates but different seeds produce different (but individually
	// reproducible) fault sequences.
	Seed uint64
	// ReadTransient is the probability that a flash read fails with
	// flash.ErrTransientRead (retryable; the page data is intact).
	ReadTransient float64
	// ProgramFail is the probability that a flash program fails with
	// flash.ErrProgramFail (the block must be retired).
	ProgramFail float64
	// MACFail is the probability that a MAC-verified page read fails
	// integrity verification (surfaced as a mee.ErrIntegrity wrap).
	MACFail float64
	// DieDeaths scripts permanent die failures on the virtual clock.
	DieDeaths []DieDeath
}

// Zero reports whether the plan injects no faults at all. A nil plan
// is zero.
func (p *Plan) Zero() bool {
	if p == nil {
		return true
	}
	return p.ReadTransient <= 0 && p.ProgramFail <= 0 && p.MACFail <= 0 &&
		len(p.DieDeaths) == 0
}

// hash mixes (Seed, kind, shard, n) with the splitmix64 finalizer.
// Each (kind, shard) pair gets an independent stream indexed by n.
func (p *Plan) hash(kind Kind, shard int, n uint64) uint64 {
	x := p.Seed
	x ^= (uint64(kind) + 1) * 0x9E3779B97F4A7C15
	x ^= uint64(shard+1) * 0xBF58476D1CE4E5B9
	x ^= (n + 1) * 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Fires reports whether the n-th operation of the (kind, shard) stream
// faults at probability prob. It is a pure function: identical inputs
// always agree, regardless of call order or goroutine.
func (p *Plan) Fires(kind Kind, shard int, n uint64, prob float64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	// Take the top 53 bits for an unbiased uniform in [0, 1).
	return float64(p.hash(kind, shard, n)>>11)*(1.0/(1<<53)) < prob
}

// DieDead reports whether (ch, die) is scripted dead at virtual time at.
func (p *Plan) DieDead(at sim.Time, ch, die int) bool {
	if p == nil {
		return false
	}
	for _, d := range p.DieDeaths {
		if d.Channel == ch && d.Die == die && at >= d.At {
			return true
		}
	}
	return false
}

// ErrInvalidPlan is the sentinel carried by every *PlanError, so callers
// can dispatch on "the plan itself is malformed" without inspecting the
// concrete coordinates.
var ErrInvalidPlan = errors.New("fault: invalid plan")

// PlanError reports a fault plan rejected at injector-install time: a
// scripted DieDeath whose channel or die coordinate falls outside the
// device geometry it is being installed on. Before validation existed,
// such entries silently never fired — a scenario that claimed to kill a
// die while injecting nothing. It unwraps to ErrInvalidPlan.
type PlanError struct {
	// Index is the offending entry's position in Plan.DieDeaths.
	Index int
	// Field names the out-of-range coordinate ("Channel" or "Die").
	Field string
	// Value is the coordinate's value; Limit the exclusive upper bound
	// the geometry allows (valid values are [0, Limit)).
	Value, Limit int
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("fault: DieDeaths[%d].%s = %d out of range [0, %d)",
		e.Index, e.Field, e.Value, e.Limit)
}

// Unwrap lets errors.Is(err, ErrInvalidPlan) match a *PlanError.
func (e *PlanError) Unwrap() error { return ErrInvalidPlan }

// Validate checks the plan's scripted coordinates against a device
// geometry: every DieDeath must name a channel in [0, channels) and a
// channel-local die in [0, diesPerChannel). A nil plan is valid. The
// first offending entry is returned as a *PlanError.
func (p *Plan) Validate(channels, diesPerChannel int) error {
	if p == nil {
		return nil
	}
	for i, d := range p.DieDeaths {
		if d.Channel < 0 || d.Channel >= channels {
			return &PlanError{Index: i, Field: "Channel", Value: d.Channel, Limit: channels}
		}
		if d.Die < 0 || d.Die >= diesPerChannel {
			return &PlanError{Index: i, Field: "Die", Value: d.Die, Limit: diesPerChannel}
		}
	}
	return nil
}

// MACFault reports whether the n-th MAC-verified page read of the given
// tenant fails verification.
func (p *Plan) MACFault(tenant int, n uint64) bool {
	if p == nil {
		return false
	}
	return p.Fires(KindMAC, tenant, n, p.MACFail)
}

// Injector adapts a Plan to the flash.Device injection seam. The
// device supplies the per-channel operation ordinal n; the injector
// turns it into a deterministic verdict. Construct with NewInjector.
type Injector struct {
	plan *Plan
}

var _ flash.Injector = (*Injector)(nil)

// NewInjector wraps plan for flash.Device.SetInjector. A nil or zero
// plan yields a nil interface, which the device treats as "no
// injection" — returning the interface type (not *Injector) is what
// keeps the nil from turning into a typed-nil at the SetInjector call.
func NewInjector(plan *Plan) flash.Injector {
	if plan.Zero() {
		return nil
	}
	return &Injector{plan: plan}
}

// Read decides the fate of the n-th read on channel ch targeting die.
func (in *Injector) Read(at sim.Time, ch, die int, n uint64) error {
	if in.plan.DieDead(at, ch, die) {
		return fmt.Errorf("fault: read on dead die (ch=%d,die=%d): %w", ch, die, flash.ErrDieDead)
	}
	if in.plan.Fires(KindRead, ch, n, in.plan.ReadTransient) {
		return fmt.Errorf("fault: transient read (ch=%d,die=%d,n=%d): %w", ch, die, n, flash.ErrTransientRead)
	}
	return nil
}

// Program decides the fate of the n-th program on channel ch targeting die.
func (in *Injector) Program(at sim.Time, ch, die int, n uint64) error {
	if in.plan.DieDead(at, ch, die) {
		return fmt.Errorf("fault: program on dead die (ch=%d,die=%d): %w", ch, die, flash.ErrDieDead)
	}
	if in.plan.Fires(KindProgram, ch, n, in.plan.ProgramFail) {
		return fmt.Errorf("fault: program failure (ch=%d,die=%d,n=%d): %w", ch, die, n, flash.ErrProgramFail)
	}
	return nil
}

// Erase decides the fate of the n-th erase on channel ch targeting die.
// Only scripted die deaths affect erases.
func (in *Injector) Erase(at sim.Time, ch, die int, n uint64) error {
	if in.plan.DieDead(at, ch, die) {
		return fmt.Errorf("fault: erase on dead die (ch=%d,die=%d): %w", ch, die, flash.ErrDieDead)
	}
	return nil
}

// NewInjectorFor is the validating form of NewInjector: the injector is
// built only after the plan's scripted coordinates check out against the
// target device's geometry (channels × diesPerChannel). An out-of-range
// DieDeath yields a *PlanError instead of an injector that silently
// never fires. A nil or zero plan yields (nil, nil).
func NewInjectorFor(plan *Plan, channels, diesPerChannel int) (flash.Injector, error) {
	if err := plan.Validate(channels, diesPerChannel); err != nil {
		return nil, err
	}
	return NewInjector(plan), nil
}

// DeviceDeath scripts a die death on one device of a fleet: the named
// device suffers Death; every other device's plan omits it.
type DeviceDeath struct {
	Device int
	Death  DieDeath
}

// KillDevice scripts the total death of one device: every
// (channel, die) of a channels × diesPerChannel geometry dies at virtual
// time at. Installing the derived plan retires the whole device — the
// fleet-failover sweep's way of taking a device out from under its
// tenants.
func KillDevice(device int, at sim.Time, channels, diesPerChannel int) []DeviceDeath {
	out := make([]DeviceDeath, 0, channels*diesPerChannel)
	for ch := 0; ch < channels; ch++ {
		for die := 0; die < diesPerChannel; die++ {
			out = append(out, DeviceDeath{Device: device,
				Death: DieDeath{Channel: ch, Die: die, At: at}})
		}
	}
	return out
}

// FleetPlan is a fault scenario for a fleet of devices: background
// probabilistic rates applied to every device through decorrelated
// per-device streams, plus die deaths scripted against specific devices
// — so one device can be scripted to die while its neighbours stay
// clean. Derive each device's member with ForDevice.
//
// Like Plan, a FleetPlan is immutable after construction; share one
// pointer across runs. ForDevice caches the derived plans, so the same
// (fleet plan, device) pair always yields the same *Plan instance —
// which is what lets derived plans participate in config memo keys that
// compare pointers by identity.
type FleetPlan struct {
	// Seed keys every device's probabilistic streams; device d runs under
	// a seed mixed from (Seed, d), so fleet-wide rates never produce
	// correlated fault patterns across devices.
	Seed uint64
	// ReadTransient, ProgramFail, and MACFail are fleet-wide background
	// rates, applied to every device (see Plan for their semantics).
	ReadTransient float64
	ProgramFail   float64
	MACFail       float64
	// Deaths scripts die deaths on specific devices.
	Deaths []DeviceDeath

	mu      sync.Mutex
	derived map[int]*Plan
}

// deviceSeed decorrelates device d's streams from its neighbours' with
// the same splitmix64 finalizer the per-plan hash uses.
func (fp *FleetPlan) deviceSeed(device int) uint64 {
	x := fp.Seed ^ uint64(device+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ForDevice returns device's member of the fleet scenario: the
// background rates under a device-mixed seed, plus only the die deaths
// scripted for that device. A device the scenario leaves entirely clean
// gets nil, so it replays the exact fault-free path bit for bit. The
// result is cached: repeated calls return the same pointer.
func (fp *FleetPlan) ForDevice(device int) *Plan {
	if fp == nil {
		return nil
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if p, ok := fp.derived[device]; ok {
		return p
	}
	var deaths []DieDeath
	for _, d := range fp.Deaths {
		if d.Device == device {
			deaths = append(deaths, d.Death)
		}
	}
	var p *Plan
	if fp.ReadTransient > 0 || fp.ProgramFail > 0 || fp.MACFail > 0 || len(deaths) > 0 {
		p = &Plan{
			Seed:          fp.deviceSeed(device),
			ReadTransient: fp.ReadTransient,
			ProgramFail:   fp.ProgramFail,
			MACFail:       fp.MACFail,
			DieDeaths:     deaths,
		}
	}
	if fp.derived == nil {
		fp.derived = make(map[int]*Plan)
	}
	fp.derived[device] = p
	return p
}
