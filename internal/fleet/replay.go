package fleet

import (
	"fmt"

	"iceclave/internal/core"
	"iceclave/internal/fault"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// ReplayTenant is one tenant of a virtual-time fleet replay: a recorded
// workload trace under a tenant name (the placement key).
type ReplayTenant struct {
	Name  string
	Trace *workload.Trace
}

// Runner executes one device-epoch replay: the named mix on one
// device's configuration. core.RunMultiStats is the canonical
// implementation; experiments.Suite supplies a memoizing one, so a
// rerun of the fleet sweep reuses cached device replays exactly like
// any other experiment.
type Runner func(mix []string, mode core.Mode, cfg core.Config) ([]core.Result, core.RunStats, error)

// ReplayConfig parameterizes a fleet replay.
type ReplayConfig struct {
	// Devices is the fleet size (default 1).
	Devices int
	// Weights are optional per-device placement weights (nil = uniform).
	Weights []float64
	// Base is the per-device replay configuration. Its FaultPlan is
	// overridden per device from Faults; set MinFlashPages for the whole
	// mix so every device runs identical hardware.
	Base core.Config
	// Faults is the fleet fault scenario (nil = fault-free everywhere).
	// Share one pointer across reruns: derived per-device plans are
	// cached inside it, which keeps memoizing Runners effective.
	Faults *fault.FleetPlan
	// PlacementSeed salts the rendezvous placement.
	PlacementSeed uint64
	// HealthFloor is the degradation threshold (0 = DefaultHealthFloor).
	HealthFloor float64
	// Run executes device replays (nil = core.RunMultiStats).
	Run Runner
}

// TenantOutcome is one tenant's fate across the replay.
type TenantOutcome struct {
	Tenant string
	// Device is the initial placement; FinalDevice where the tenant's
	// data and result ended up (differs only after a migration).
	Device      int
	FinalDevice int
	// Migrated marks tenants moved off a degraded device; Lost marks
	// tenants that did not complete — stranded with no healthy target,
	// or still failing after re-admission.
	Migrated bool
	Lost     bool
	// PagesMoved and MigrationLatency describe the migration (zero when
	// the tenant never moved): every owned page is read through the
	// source TEE/MEE path and re-encrypted on the destination, pipelined
	// across the destination's channels.
	PagesMoved       int64
	MigrationLatency sim.Duration
	// Result is the tenant's final replay result: the wave-1 result on
	// its home device, or the post-migration wave-2 result on the
	// failover target.
	Result core.Result
}

// DeviceOutcome summarizes one device's epoch.
type DeviceOutcome struct {
	Device  int
	Tenants int
	// Score is the epoch-end health score; Degraded marks devices that
	// fell below the floor and were failed over.
	Score    float64
	Degraded bool
	// DeadDies and BadBlocks are the retirement telemetry behind Score.
	DeadDies  int64
	BadBlocks int64
	// CompletedPages is the goodput the device served (completed
	// tenants' pages, counted on the tenant's final device).
	CompletedPages int64
	// Makespan is the device's finish time: its last wave-1 completion,
	// extended by recovery waves it absorbed as a failover target.
	Makespan sim.Duration
}

// Failover records one failover decision.
type Failover struct {
	Source, Target int
	// SourceScore is the health score that condemned the source.
	SourceScore float64
	// Tenants are the migrated tenant names, in placement order.
	Tenants []string
}

// ReplayReport is the deterministic outcome of a fleet replay. Two
// replays with identical inputs produce DeepEqual reports — decisions,
// latencies, and per-tenant Results included.
type ReplayReport struct {
	Devices   []DeviceOutcome
	Tenants   []TenantOutcome
	Failovers []Failover
	// Recovered and Lost count the tenants of degraded devices:
	// recovered completed on their failover target, lost did not (no
	// target, or failed again after migration).
	Recovered, Lost int
	// GoodputPagesPerSec is fleet-wide completed work (pages of
	// completed tenants) over the fleet makespan.
	GoodputPagesPerSec float64
	// UtilizationSkew is max device share over mean share of completed
	// pages (1.0 = perfectly even; 0 when nothing completed).
	UtilizationSkew float64
	// Migration latency distribution over migrated tenants.
	MigrationMean, MigrationMax sim.Duration
	// Makespan is the fleet finish time (max device makespan).
	Makespan sim.Duration
}

// Replay runs the virtual-time fleet: placement, one replay epoch per
// device, an epoch-end health evaluation, and failover of every
// degraded device (migration latency modeled on the virtual clock,
// tenants re-admitted on the healthiest target in a recovery wave).
//
// Everything is deterministic: placement is a pure hash, device epochs
// are core replays (bit-identical across pooled stacks), health scores
// are arithmetic over replay counters, and targets are chosen by (score,
// lowest-ID) — so identical seeds replay identical failover decisions
// and identical post-migration Results. A 1-device fleet degenerates to exactly one
// core.RunMultiStats over the tenants in input order: results-identical
// to the bare SSD.
func Replay(tenants []ReplayTenant, mode core.Mode, rc ReplayConfig) (*ReplayReport, error) {
	if rc.Devices <= 0 {
		rc.Devices = 1
	}
	if rc.Weights != nil && len(rc.Weights) != rc.Devices {
		return nil, fmt.Errorf("fleet: %d weights for %d devices", len(rc.Weights), rc.Devices)
	}
	floor := rc.HealthFloor
	if floor == 0 {
		floor = DefaultHealthFloor
	}
	run := rc.Run
	if run == nil {
		byName := make(map[string]*workload.Trace, len(tenants))
		for _, tn := range tenants {
			byName[tn.Name] = tn.Trace
		}
		run = func(mix []string, mode core.Mode, cfg core.Config) ([]core.Result, core.RunStats, error) {
			traces := make([]*workload.Trace, len(mix))
			for i, name := range mix {
				traces[i] = byName[name]
			}
			return core.RunMultiStats(traces, mode, cfg)
		}
	}

	// Placement: input order within each device group, so a 1-device
	// fleet replays the exact input mix.
	groups := make([][]int, rc.Devices)
	for i, tn := range tenants {
		d := Place(tn.Name, rc.Devices, rc.PlacementSeed, rc.Weights, nil)
		if d < 0 {
			return nil, fmt.Errorf("fleet: no eligible device for tenant %s", tn.Name)
		}
		groups[d] = append(groups[d], i)
	}

	rep := &ReplayReport{
		Devices: make([]DeviceOutcome, rc.Devices),
		Tenants: make([]TenantOutcome, len(tenants)),
	}
	scores := make([]float64, rc.Devices)

	// Wave 1: one replay epoch per device, health scored from its
	// virtual-time telemetry.
	for d := 0; d < rc.Devices; d++ {
		rep.Devices[d] = DeviceOutcome{Device: d, Tenants: len(groups[d]), Score: 1}
		scores[d] = 1
		if len(groups[d]) == 0 {
			continue
		}
		mix := mixNames(tenants, groups[d])
		cfg := rc.Base
		cfg.FaultPlan = rc.Faults.ForDevice(d)
		results, rstats, err := run(mix, mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", d, err)
		}
		var trips, failed int64
		var makespan sim.Duration
		for k, gi := range groups[d] {
			trips += int64(results[k].BreakerTrips)
			if results[k].Failed {
				failed++
			}
			if results[k].Total > makespan {
				makespan = results[k].Total
			}
			rep.Tenants[gi] = TenantOutcome{
				Tenant: tenants[gi].Name, Device: d, FinalDevice: d, Result: results[k],
			}
		}
		scores[d] = ScoreTelemetry(rstats.FTL, rstats.Flash, trips, failed)
		rep.Devices[d].Score = scores[d]
		rep.Devices[d].DeadDies = rstats.FTL.DeadDies
		rep.Devices[d].BadBlocks = rstats.FTL.BadBlocks
		rep.Devices[d].Makespan = makespan
	}

	// Failover: every degraded device drains to the healthiest
	// non-degraded target (ties to the lowest device ID), in ascending
	// source order — a fixed decision order, so the report is replayable.
	for d := 0; d < rc.Devices; d++ {
		if scores[d] >= floor || len(groups[d]) == 0 {
			if scores[d] < floor {
				rep.Devices[d].Degraded = true
			}
			continue
		}
		rep.Devices[d].Degraded = true
		target := -1
		for t := 0; t < rc.Devices; t++ {
			if t == d || scores[t] < floor {
				continue
			}
			if target < 0 || scores[t] > scores[target] {
				target = t
			}
		}
		mix := mixNames(tenants, groups[d])
		if target < 0 {
			// No healthy device left: the tenants are stranded.
			for _, gi := range groups[d] {
				rep.Tenants[gi].Lost = true
			}
			rep.Lost += len(groups[d])
			continue
		}
		// Migration latency: every owned page crosses the source TEE/MEE
		// read path (tRD + cipher) and is re-encrypted and programmed on
		// the destination (cipher + tPROG), pipelined across the
		// channels, on the virtual clock.
		perPage := rc.Base.FlashTiming.ReadLatency + rc.Base.FlashTiming.ProgramLatency +
			2*rc.Base.CipherPerPage
		channels := rc.Base.Channels
		if channels <= 0 {
			channels = 1
		}
		var maxMig sim.Duration
		for _, gi := range groups[d] {
			tr := tenants[gi].Trace
			pages := int64(tr.SetupPages) + tr.Meter.PagesWritten
			rounds := (pages + int64(channels) - 1) / int64(channels)
			lat := sim.Duration(rounds) * perPage
			o := &rep.Tenants[gi]
			o.Migrated = true
			o.FinalDevice = target
			o.PagesMoved = pages
			o.MigrationLatency = lat
			if lat > maxMig {
				maxMig = lat
			}
		}
		// Recovery wave: the source's tenants re-admitted on the target,
		// replayed under the target's own fault plan.
		cfg := rc.Base
		cfg.FaultPlan = rc.Faults.ForDevice(target)
		results, _, err := run(mix, mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: recovery wave %d->%d: %w", d, target, err)
		}
		var waveMakespan sim.Duration
		for k, gi := range groups[d] {
			rep.Tenants[gi].Result = results[k]
			if results[k].Failed {
				rep.Tenants[gi].Lost = true
				rep.Lost++
			} else {
				rep.Recovered++
			}
			if results[k].Total > waveMakespan {
				waveMakespan = results[k].Total
			}
		}
		// The target absorbs the recovery wave after the source epoch
		// ends (failure detected at epoch end) and the slowest migration
		// lands.
		finish := rep.Devices[d].Makespan + maxMig + waveMakespan
		if finish > rep.Devices[target].Makespan {
			rep.Devices[target].Makespan = finish
		}
		rep.Failovers = append(rep.Failovers, Failover{
			Source: d, Target: target, SourceScore: scores[d], Tenants: mix,
		})
	}

	// Fleet-wide aggregates: goodput over the fleet makespan,
	// utilization skew over completed pages per final device, migration
	// latency distribution.
	var totalDone int64
	var migSum sim.Duration
	migrated := 0
	for i := range rep.Tenants {
		o := &rep.Tenants[i]
		if o.Migrated {
			migrated++
			migSum += o.MigrationLatency
			if o.MigrationLatency > rep.MigrationMax {
				rep.MigrationMax = o.MigrationLatency
			}
		}
		if o.Lost || o.Result.Failed {
			continue
		}
		work := tenants[i].Trace.Meter.PagesRead + tenants[i].Trace.Meter.PagesWritten
		rep.Devices[o.FinalDevice].CompletedPages += work
		totalDone += work
	}
	if migrated > 0 {
		rep.MigrationMean = migSum / sim.Duration(migrated)
	}
	for d := range rep.Devices {
		if rep.Devices[d].Makespan > rep.Makespan {
			rep.Makespan = rep.Devices[d].Makespan
		}
	}
	if rep.Makespan > 0 {
		rep.GoodputPagesPerSec = float64(totalDone) / (float64(rep.Makespan) / 1e9)
	}
	if totalDone > 0 {
		mean := float64(totalDone) / float64(rc.Devices)
		var maxShare float64
		for d := range rep.Devices {
			if s := float64(rep.Devices[d].CompletedPages); s > maxShare {
				maxShare = s
			}
		}
		rep.UtilizationSkew = maxShare / mean
	}
	return rep, nil
}

func mixNames(tenants []ReplayTenant, group []int) []string {
	out := make([]string, len(group))
	for i, gi := range group {
		out[i] = tenants[gi].Name
	}
	return out
}
