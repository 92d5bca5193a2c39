package fleet

import (
	"reflect"
	"testing"

	"iceclave/internal/core"
	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// coreDiesPerChannel mirrors the replay device geometry (4 chips × 4
// dies per channel) for scripting whole-device deaths.
const coreDiesPerChannel = 16

// recordTrace records one workload at the small scale the core tests use.
func recordTrace(t testing.TB, name string) *workload.Trace {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.TinyScale()
	sc.LineitemRows = 30_000
	sc.Accounts = 10_000
	sc.TPCBTxns = 3_000
	sc.StockRows = 10_000
	sc.TPCCTxns = 1_200
	sc.TextPages = 1_024
	tr, err := workload.Record(w, sc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// renamed copies a trace under a new tenant name, so one recorded
// workload can stand in for several fleet tenants.
func renamed(tr *workload.Trace, name string) *workload.Trace {
	cp := *tr
	cp.Name = name
	return &cp
}

// fleetMix builds six tenants from three recorded workloads.
func fleetMix(t testing.TB) []ReplayTenant {
	t.Helper()
	q1 := recordTrace(t, "TPC-H Q1")
	tpcb := recordTrace(t, "TPC-B")
	filter := recordTrace(t, "Filter")
	return []ReplayTenant{
		{Name: "alpha/q1", Trace: renamed(q1, "alpha/q1")},
		{Name: "beta/tpcb", Trace: renamed(tpcb, "beta/tpcb")},
		{Name: "gamma/filter", Trace: renamed(filter, "gamma/filter")},
		{Name: "delta/q1", Trace: renamed(q1, "delta/q1")},
		{Name: "epsilon/tpcb", Trace: renamed(tpcb, "epsilon/tpcb")},
		{Name: "zeta/filter", Trace: renamed(filter, "zeta/filter")},
	}
}

// mixPages sizes MinFlashPages so every device (and the bare-SSD
// comparison) replays on identical hardware regardless of its tenant
// subset.
func mixPages(tenants []ReplayTenant) int64 {
	var total int64
	for _, tn := range tenants {
		total += int64(tn.Trace.SetupPages) + tn.Trace.Meter.PagesWritten + 1024
	}
	return total
}

// fleetBase is the shared per-device replay configuration.
func fleetBase(tenants []ReplayTenant) core.Config {
	cfg := core.DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.MinFlashPages = mixPages(tenants)
	return cfg
}

// deathPlan scripts the whole-device death of the busiest device of the
// placement, plus a mild fleet-wide transient-read rate.
func deathPlan(tenants []ReplayTenant, devices int, salt uint64, channels int) (*fault.FleetPlan, int) {
	names := make([]string, len(tenants))
	for i, tn := range tenants {
		names[i] = tn.Name
	}
	counts := make([]int, devices)
	for _, d := range Placements(names, devices, salt, nil) {
		counts[d]++
	}
	victim := 0
	for d, c := range counts {
		if c > counts[victim] {
			victim = d
		}
	}
	return &fault.FleetPlan{
		Seed:          909,
		ReadTransient: 0.002,
		Deaths:        fault.KillDevice(victim, sim.Time(500*sim.Microsecond), channels, coreDiesPerChannel),
	}, victim
}

// A fleet replay is deterministic end to end: identical seeds replay
// identical placement, identical health scores, identical failover
// decisions, and identical post-migration Results.
func TestFleetReplayDeterministic(t *testing.T) {
	tenants := fleetMix(t)
	base := fleetBase(tenants)
	const devices, salt = 3, 17
	plan, victim := deathPlan(tenants, devices, salt, base.Channels)
	rc := ReplayConfig{Devices: devices, Base: base, Faults: plan, PlacementSeed: salt}

	first, err := Replay(tenants, core.ModeIceClave, rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Failovers) == 0 {
		t.Fatalf("whole-device death of device %d triggered no failover; scores %+v", victim, first.Devices)
	}
	if first.Failovers[0].Source != victim {
		t.Errorf("failover source %d, want the killed device %d", first.Failovers[0].Source, victim)
	}
	if !first.Devices[victim].Degraded || first.Devices[victim].Score >= DefaultHealthFloor {
		t.Errorf("killed device not degraded: %+v", first.Devices[victim])
	}
	if first.Recovered == 0 {
		t.Errorf("no tenant recovered: %+v", first)
	}
	for _, o := range first.Tenants {
		if o.Migrated && (o.MigrationLatency <= 0 || o.PagesMoved <= 0) {
			t.Errorf("migrated tenant %s has empty migration: %+v", o.Tenant, o)
		}
	}
	for round := 0; round < 2; round++ {
		again, err := Replay(tenants, core.ModeIceClave, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("round %d: replay diverged\n got %+v\nwant %+v", round, again, first)
		}
	}
}

// The report is bit-identical across fresh and pooled core stacks — the
// fleet layer adds no nondeterminism on top of the core replay
// guarantees.
func TestFleetReplayIdenticalAcrossPooledStacks(t *testing.T) {
	tenants := fleetMix(t)
	base := fleetBase(tenants)
	const devices, salt = 3, 17
	plan, _ := deathPlan(tenants, devices, salt, base.Channels)
	rc := ReplayConfig{Devices: devices, Base: base, Faults: plan, PlacementSeed: salt}

	core.ResetPool()
	defer core.ResetPool()
	core.SetPooling(false)
	fresh, err := Replay(tenants, core.ModeIceClave, rc)
	core.SetPooling(true)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Replay(tenants, core.ModeIceClave, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("pooled-stack replay diverges from fresh stacks\n got %+v\nwant %+v", pooled, fresh)
	}
}

// A 1-device fleet degenerates to the bare SSD: every tenant lands on
// device 0 in input order, and the per-tenant Results are
// struct-identical to core.RunMultiStats over the same mix.
func TestOneDeviceFleetMatchesBareSSD(t *testing.T) {
	tenants := fleetMix(t)
	base := fleetBase(tenants)
	traces := make([]*workload.Trace, len(tenants))
	for i, tn := range tenants {
		traces[i] = tn.Trace
	}
	bare, _, err := core.RunMultiStats(traces, core.ModeIceClave, base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(tenants, core.ModeIceClave, ReplayConfig{Devices: 1, Base: base, PlacementSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failovers) != 0 || rep.Lost != 0 {
		t.Fatalf("fault-free 1-device fleet reported failovers: %+v", rep)
	}
	for i, o := range rep.Tenants {
		if o.Device != 0 || o.FinalDevice != 0 {
			t.Errorf("tenant %s not on device 0: %+v", o.Tenant, o)
		}
		if o.Result != bare[i] {
			t.Errorf("tenant %s: fleet result diverges from bare SSD\n got %+v\nwant %+v",
				o.Tenant, o.Result, bare[i])
		}
	}
	if rep.UtilizationSkew != 1 {
		t.Errorf("1-device skew %v, want 1", rep.UtilizationSkew)
	}
}

func ftlStats(deadDies, badBlocks, retries int64) ftl.Stats {
	return ftl.Stats{DeadDies: deadDies, BadBlocks: badBlocks, ReadRetries: retries}
}

func flashStats(reads int64) flash.Stats { return flash.Stats{Reads: reads} }

// Health scoring: clean telemetry is a perfect 1.0, and the telemetry
// of a whole-device death lands under the failover floor.
func TestScoreTelemetry(t *testing.T) {
	if s := ScoreTelemetry(ftlStats(0, 0, 0), flashStats(1000), 0, 0); s != 1 {
		t.Errorf("clean device scores %v, want 1", s)
	}
	if s := ScoreTelemetry(ftlStats(16, 0, 0), flashStats(1000), 0, 0); s >= DefaultHealthFloor {
		t.Errorf("16 dead dies score %v, want < %v", s, DefaultHealthFloor)
	}
	// A device failing its tenants' offloads is degraded even when its
	// retirement counters are clean — the read-path die-death signature.
	if s := ScoreTelemetry(ftlStats(0, 0, 0), flash.Stats{Reads: 600, ReadFaults: 50}, 39, 3); s >= DefaultHealthFloor {
		t.Errorf("offload-killing device scores %v, want < %v", s, DefaultHealthFloor)
	}
	if s := ScoreTelemetry(ftlStats(0, 3, 40), flashStats(100), 2, 0); s >= 1 || s < DefaultHealthFloor {
		t.Errorf("worn device scores %v, want degraded-but-alive", s)
	}
	if s := ScoreTelemetry(ftlStats(1000, 1000, 1000), flashStats(1), 1000, 100); s < 0 {
		t.Errorf("score went negative: %v", s)
	}
}
