package experiments

import (
	"fmt"

	"iceclave/internal/core"
	"iceclave/internal/fault"
	"iceclave/internal/fleet"
	"iceclave/internal/sim"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

// fleetMix is the eight-tenant population the fleet table spreads across
// devices: every standard workload family, so a device death strands a
// representative cross-section of scan, write, and compute tenants.
var fleetMix = []string{"TPC-H Q1", "TPC-B", "Filter", "Aggregate",
	"TPC-H Q12", "Arithmetic", "TPC-C", "Wordcount"}

// Fleet-sweep shape: the rack size, the placement salt every scenario
// shares, and the admission cap each device replays under (the same
// contended regime as the Fault table).
const (
	FleetDevices       = 3
	FleetPlacementSeed = 2020 // spreads the mix 2/3/3 across the rack
	FleetReplaySlots   = 2
)

// fleetDiesPerChannel mirrors the replay device geometry (4 chips x 4
// dies per channel) for scripting whole-device deaths.
const fleetDiesPerChannel = 16

// FleetRecoveryFloor is the committed tenant floor of the device-death
// scenario: TestFleetReplaySummaryShape fails if a death sweep ever
// recovers fewer tenants than this. The scenario is deterministic, so the
// floor is an exact regression tripwire, not a statistical bound.
const FleetRecoveryFloor = 3

// fleetScenario is one point of the fleet sweep. A nil fleet plan is
// the all-healthy baseline.
type fleetScenario struct {
	name   string
	faults *fault.FleetPlan
	victim int // scripted dead device; -1 when none
}

// fleetScenarios builds the sweep once per suite so reruns share the
// same *fault.FleetPlan instance — per-device plans derived from it are
// cached inside the plan, so the memoizing runner sees identical
// *fault.Plan pointers on a rerun and serves every device epoch from
// cache.
func (s *Suite) fleetScenarios() []fleetScenario {
	s.fleetOnce.Do(func() {
		// Script the death of the busiest device, so the failover actually
		// has tenants to migrate. Placement is a pure hash — computing it
		// here is the same decision the replay will make.
		counts := make([]int, FleetDevices)
		for _, d := range fleet.Placements(fleetMix, FleetDevices, FleetPlacementSeed, nil) {
			counts[d]++
		}
		victim := 0
		for d, c := range counts {
			if c > counts[victim] {
				victim = d
			}
		}
		s.fleetScens = []fleetScenario{
			{"all healthy", nil, -1},
			{"device death", &fault.FleetPlan{
				Seed:          77,
				ReadTransient: 0.002,
				Deaths: fault.KillDevice(victim, sim.Time(500*sim.Microsecond),
					s.Config.Channels, fleetDiesPerChannel),
			}, victim},
		}
	})
	return s.fleetScens
}

// FleetScenarioStat summarizes one scenario of the fleet sweep.
type FleetScenarioStat struct {
	Scenario string
	Devices  int
	Tenants  int
	// Failovers is the number of degraded devices drained; Recovered and
	// Lost partition the tenants those devices stranded.
	Failovers int
	Recovered int
	Lost      int
	// GoodputPerSec is fleet-wide completed pages per simulated second of
	// fleet makespan; UtilizationSkew is max/mean completed-page share.
	GoodputPerSec   float64
	UtilizationSkew float64
	// Migration latency distribution over migrated tenants, on the
	// virtual clock.
	MigrationMean sim.Duration
	MigrationMax  sim.Duration
	Makespan      sim.Duration
}

// FleetReplaySummary is the fleet sweep the Fleet table renders and the
// bench record embeds as its fleet_replay section.
type FleetReplaySummary struct {
	Mix     []string
	Devices int
	Slots   int
	// RecoveryFloor is the committed minimum for the death scenario's
	// Recovered count (the bench-compare gate).
	RecoveryFloor int
	Scenarios     []FleetScenarioStat
	// OneDeviceIdentical is the degeneracy gate: a 1-device fleet replay
	// must produce per-tenant Results struct-identical to a bare-SSD
	// core.RunMultiStats over the same mix — checked against a direct
	// core run, bypassing the suite's memo cache.
	OneDeviceIdentical bool
}

// fleetTenants resolves the fleet mix to replay tenants (name + trace).
func (s *Suite) fleetTenants() ([]fleet.ReplayTenant, error) {
	tenants := make([]fleet.ReplayTenant, len(fleetMix))
	for i, name := range fleetMix {
		tr, err := s.Trace(name)
		if err != nil {
			return nil, err
		}
		tenants[i] = fleet.ReplayTenant{Name: name, Trace: tr}
	}
	return tenants, nil
}

// fleetBase is the shared per-device replay configuration: MinFlashPages
// covers the whole mix so every device (and the bare-SSD degeneracy
// check) replays identical hardware, making device epochs memoizable
// across scenarios.
func (s *Suite) fleetBase(tenants []fleet.ReplayTenant) core.Config {
	var totalPages int64
	for _, tn := range tenants {
		totalPages += int64(tn.Trace.SetupPages) + tn.Trace.Meter.PagesWritten + 1024
	}
	cfg := s.Config
	cfg.MinFlashPages = totalPages
	cfg.AdmissionSlots = FleetReplaySlots
	return cfg
}

// FleetReplaySummary replays the fleet sweep — an all-healthy baseline
// and a whole-device death with failover — and pins the 1-device
// degeneracy. Scenarios run across the suite's workers; device epochs
// go through the suite's memoizing runner, so scenarios sharing a
// device configuration (every clean device of both scenarios) replay it
// once per suite.
func (s *Suite) FleetReplaySummary() (FleetReplaySummary, error) {
	tenants, err := s.fleetTenants()
	if err != nil {
		return FleetReplaySummary{}, err
	}
	base := s.fleetBase(tenants)
	scens := s.fleetScenarios()
	out := FleetReplaySummary{Mix: fleetMix, Devices: FleetDevices, Slots: FleetReplaySlots,
		RecoveryFloor: FleetRecoveryFloor, Scenarios: make([]FleetScenarioStat, len(scens))}
	err = s.mapIndexed(len(scens), func(i int) error {
		rep, err := fleet.Replay(tenants, core.ModeIceClave, fleet.ReplayConfig{
			Devices:       FleetDevices,
			Base:          base,
			Faults:        scens[i].faults,
			PlacementSeed: FleetPlacementSeed,
			Run:           s.runMultiStats,
		})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", scens[i].name, err)
		}
		out.Scenarios[i] = FleetScenarioStat{
			Scenario:        scens[i].name,
			Devices:         FleetDevices,
			Tenants:         len(rep.Tenants),
			Failovers:       len(rep.Failovers),
			Recovered:       rep.Recovered,
			Lost:            rep.Lost,
			GoodputPerSec:   rep.GoodputPagesPerSec,
			UtilizationSkew: rep.UtilizationSkew,
			MigrationMean:   rep.MigrationMean,
			MigrationMax:    rep.MigrationMax,
			Makespan:        rep.Makespan,
		}
		return nil
	})
	if err != nil {
		return FleetReplaySummary{}, err
	}
	identical, err := s.fleetOneDeviceIdentity(tenants, base)
	if err != nil {
		return FleetReplaySummary{}, err
	}
	out.OneDeviceIdentical = identical
	return out, nil
}

// fleetOneDeviceIdentity checks the degeneracy contract with a direct
// (unmemoized) core replay on one side and the fleet's default runner
// on the other, so the comparison never collapses into one cache entry.
func (s *Suite) fleetOneDeviceIdentity(tenants []fleet.ReplayTenant, base core.Config) (bool, error) {
	traces := make([]*workload.Trace, len(tenants))
	for i, tn := range tenants {
		traces[i] = tn.Trace
	}
	bare, _, err := core.RunMultiStats(traces, core.ModeIceClave, base)
	if err != nil {
		return false, err
	}
	rep, err := fleet.Replay(tenants, core.ModeIceClave, fleet.ReplayConfig{
		Devices: 1, Base: base, PlacementSeed: FleetPlacementSeed,
	})
	if err != nil {
		return false, err
	}
	for i := range bare {
		if rep.Tenants[i].Result != bare[i] {
			return false, nil
		}
	}
	return true, nil
}

// FleetTiming is the Fleet table: rack-scale placement, health-aware
// failover, and live tenant migration under a scripted whole-device
// death. Each row replays the same eight-tenant, three-device fleet
// under one scenario and reports fleet-wide goodput, per-device
// utilization skew, the migration-latency distribution, and the
// recovered-vs-lost tenant partition.
func (s *Suite) FleetTiming() (*stats.Table, error) {
	sum, err := s.FleetReplaySummary()
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		ID: "Fleet",
		Title: fmt.Sprintf("Rack-scale fleet: placement, failover, and migration (%d tenants, %d devices)",
			len(sum.Mix), sum.Devices),
		Header: []string{"Scenario", "Failovers", "Recovered", "Lost", "Goodput (pages/s)",
			"Util skew", "Migration mean (ms)", "Migration max (ms)", "Makespan (ms)"},
	}
	ms := func(d sim.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	for _, sc := range sum.Scenarios {
		t.AddRow(sc.Scenario, fmt.Sprintf("%d", sc.Failovers), fmt.Sprintf("%d", sc.Recovered),
			fmt.Sprintf("%d", sc.Lost), fmt.Sprintf("%.0f", sc.GoodputPerSec),
			fmt.Sprintf("%.2f", sc.UtilizationSkew), ms(sc.MigrationMean), ms(sc.MigrationMax),
			ms(sc.Makespan))
	}
	death := sum.Scenarios[len(sum.Scenarios)-1]
	t.AddNote("tenants are placed by weighted rendezvous hashing (salt %d): a pure hash, so placement "+
		"— like the health scores and failover targets derived from replay counters — is identical on "+
		"every rerun and across pooled stacks", FleetPlacementSeed)
	t.AddNote("the death scenario kills every die of the busiest device at 500µs of virtual time; the "+
		"health monitor scores it below the %.1f floor from its own telemetry (aborted reads, breaker "+
		"trips, failed offloads) and fails it over to the healthiest survivor, recovering %d/%d stranded "+
		"tenants (committed floor %d)", fleet.DefaultHealthFloor, death.Recovered,
		death.Recovered+death.Lost, sum.RecoveryFloor)
	t.AddNote("migration latency models draining every owned page through the source TEE/MEE read path "+
		"and re-encrypting it on the destination, pipelined across %d channels on the virtual clock",
		s.Config.Channels)
	t.AddNote("a 1-device fleet degenerates to the bare SSD: per-tenant Results struct-identical to "+
		"core.RunMultiStats (checked unmemoized: %v)", sum.OneDeviceIdentical)
	return t, nil
}
