package core

import (
	"errors"
	"testing"

	"iceclave/internal/fault"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// faultMix is a small multi-tenant collocation for the fault tests.
func faultMix(t testing.TB) []*workload.Trace {
	t.Helper()
	return []*workload.Trace{
		recordTrace(t, "TPC-H Q1"),
		recordTrace(t, "TPC-B"),
		recordTrace(t, "Filter"),
	}
}

// testFaultPlan is a moderately hostile scenario: transient reads,
// program failures, MAC faults, and one die death mid-run.
func testFaultPlan() *fault.Plan {
	return &fault.Plan{
		Seed:          77,
		ReadTransient: 0.01,
		ProgramFail:   0.005,
		MACFail:       0.002,
		DieDeaths:     []fault.DieDeath{{Channel: 1, Die: 0, At: sim.Time(2 * sim.Millisecond)}},
	}
}

// A nil plan and an all-zero plan must both reproduce the fault-free
// replay bit for bit — the replay may not even observe that a zero plan
// exists.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	base, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = &fault.Plan{Seed: 123} // rates all zero
	got, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Errorf("tenant %d (%s): zero-rate plan diverges from nil plan\n got %+v\nwant %+v",
				i, base[i].Workload, got[i], base[i])
		}
	}
}

// The same seed and plan must yield identical Results on a fresh stack
// and on a pooled (recycled) stack: the injection ordinals rewind with
// the stack.
func TestFaultReplayIdenticalAcrossPooledStacks(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.FaultPlan = testFaultPlan()
	first, stats1, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The run must actually have injected something, or this test pins
	// nothing.
	if stats1.Flash.ReadFaults == 0 && stats1.Flash.ProgramFaults == 0 {
		t.Fatalf("plan injected nothing: %+v", stats1.Flash)
	}
	for round := 0; round < 2; round++ {
		again, stats2, err := RunMultiStats(traces, ModeIceClave, cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Errorf("round %d tenant %d (%s): pooled-stack result diverges\n got %+v\nwant %+v",
					round, i, first[i].Workload, again[i], first[i])
			}
		}
		if stats2.FTL.BadBlocks != stats1.FTL.BadBlocks || stats2.FTL.ReadRetries != stats1.FTL.ReadRetries {
			t.Errorf("round %d: recovery stats diverge: %+v vs %+v", round, stats2.FTL, stats1.FTL)
		}
	}
}

// A die death mid-run degrades gracefully: the run completes (no
// deadlock, no panic), recovery is visible in the stats, and any tenant
// that failed still reports a coherent Result.
func TestDieDeathGracefulDegradation(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.FaultPlan = &fault.Plan{
		Seed:          5,
		ReadTransient: 0.02,
		DieDeaths: []fault.DieDeath{
			{Channel: 0, Die: 1, At: sim.Time(1 * sim.Millisecond)},
			{Channel: 3, Die: 2, At: sim.Time(2 * sim.Millisecond)},
		},
	}
	results, stats, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FTL.DeadDies == 0 {
		t.Errorf("no die recorded dead: %+v", stats.FTL)
	}
	for i, r := range results {
		if r.Total <= 0 {
			t.Errorf("tenant %d: non-positive total %v", i, r.Total)
		}
	}
}

// Retries and breaker trips are observable under a hostile plan, and a
// plan hostile enough trips the per-tenant breaker without wedging the
// run.
func TestBreakerTripsUnderSustainedFaults(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.FaultPlan = &fault.Plan{Seed: 3, ReadTransient: 0.6}
	cfg.FaultRetryLimit = 64
	cfg.BreakerFailures = 2
	results, _, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	totalRetries, totalTrips := 0, 0
	for _, r := range results {
		totalRetries += r.Retries
		totalTrips += r.BreakerTrips
	}
	if totalRetries == 0 {
		t.Error("sustained 60% transient rate produced no step retries")
	}
	if totalTrips == 0 {
		t.Error("sustained faults with a 2-failure breaker never tripped")
	}
}

// An exhausted retry budget fails the offload instead of hanging: with
// retries disabled and a certain fault, every tenant fails fast and the
// run still terminates with released admission slots.
func TestRetryBudgetExhaustionFailsOffload(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1 // failures must release slots or this deadlocks
	cfg.FaultPlan = &fault.Plan{Seed: 1, ReadTransient: 1}
	cfg.FaultRetryLimit = -1
	// FTL-level retries all fail too (rate 1), so every read step faults.
	results, _, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Failed {
			t.Errorf("tenant %d (%s): survived a 100%% fault rate with no retries", i, r.Workload)
		}
		if r.Total <= 0 {
			t.Errorf("tenant %d: non-positive total %v", i, r.Total)
		}
	}
}

// The offload deadline fails a faulting tenant once its virtual clock
// passes granted+Timeout.
func TestOffloadTimeoutFailsSlowTenant(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.FaultPlan = &fault.Plan{Seed: 2, ReadTransient: 0.9}
	cfg.FaultRetryLimit = 1 << 20 // budget effectively unlimited
	cfg.OffloadTimeout = 500 * sim.Microsecond
	results, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range results {
		if r.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Error("90% fault rate with a 500µs deadline failed no tenant")
	}
}

// The PR 6 reset contract extends to circuit breakers: the breaker set
// recycles with its pooled stack, is reset on acquire, and so trips and
// open/half-open positions never leak across pooled-stack reuse. A
// mismatched install-time plan is a typed error, not a silent no-op.
func TestBreakerStateNoLeakAcrossPooledReuse(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.FaultPlan = &fault.Plan{Seed: 3, ReadTransient: 0.6}
	cfg.FaultRetryLimit = 64
	cfg.BreakerFailures = 2

	ResetPool()
	defer ResetPool()
	SetPooling(false)
	fresh, _, err := RunMultiStats(traces, ModeIceClave, cfg)
	SetPooling(true)
	if err != nil {
		t.Fatal(err)
	}
	trips := 0
	for _, r := range fresh {
		trips += r.BreakerTrips
	}
	if trips == 0 {
		t.Fatal("scenario produced no breaker trips; the test would pin nothing")
	}

	first, _, err := RunMultiStats(traces, ModeIceClave, cfg) // pool miss: builds the stack
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := RunMultiStats(traces, ModeIceClave, cfg) // pool hit: recycled stack
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if first[i] != fresh[i] {
			t.Errorf("tenant %d: first pooled run diverges from fresh stack\n got %+v\nwant %+v",
				i, first[i], fresh[i])
		}
		if second[i] != fresh[i] {
			t.Errorf("tenant %d: recycled-stack run diverges from fresh stack\n got %+v\nwant %+v",
				i, second[i], fresh[i])
		}
	}

	// White-box half: the idle pooled stack still carries the last run's
	// tripped breaker set; acquiring a matching set from it must hand
	// back fully closed, zero-trip breakers, and a differing breaker
	// config must not inherit the old set at all.
	pool.mu.Lock()
	var res *resources
	for _, list := range pool.idle {
		for _, r := range list {
			if r.brk != nil {
				res = r
			}
		}
	}
	pool.mu.Unlock()
	if res == nil {
		t.Fatal("no pooled stack retained a breaker set")
	}
	if res.brk.Trips() == 0 {
		t.Fatal("pooled breaker set recorded no trips; scenario too gentle")
	}
	bs := res.acquireBreakers(res.brk.Config())
	if bs.Trips() != 0 {
		t.Errorf("recycled breaker set carries %d trips across reuse", bs.Trips())
	}
	if st := bs.For(traces[0].Name).State(); st != sim.BreakerClosed {
		t.Errorf("recycled breaker for %s is %v, want closed", traces[0].Name, st)
	}
	if other := res.acquireBreakers(sim.BreakerConfig{Failures: 9, Cooldown: sim.Millisecond}); other == bs {
		t.Error("breaker set reused across differing configurations")
	}
}

// A plan whose scripted deaths fall outside the device geometry is
// rejected at injector-install time with a typed *fault.PlanError — not
// installed as a scenario that silently never fires.
func TestFaultPlanValidatedAtInstall(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.FaultPlan = &fault.Plan{
		ReadTransient: 0.01,
		DieDeaths:     []fault.DieDeath{{Channel: cfg.Channels, Die: 0, At: sim.Time(sim.Millisecond)}},
	}
	_, _, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err == nil {
		t.Fatal("out-of-range die death installed without error")
	}
	if !errors.Is(err, fault.ErrInvalidPlan) {
		t.Fatalf("install error %v does not wrap fault.ErrInvalidPlan", err)
	}
	var pe *fault.PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("install error %v is not a *fault.PlanError", err)
	}
}
