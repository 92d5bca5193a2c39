package core

import (
	"errors"
	"testing"

	"iceclave/internal/fault"
	"iceclave/internal/sched"
	"iceclave/internal/sim"
	"iceclave/internal/trace"
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
		t.Error("sustained faults never tripped a breaker")
	}
}

// An exhausted retry budget fails the offload instead of hanging: under a
// certain fault every tenant's first read step spends exactly the
// maxStepRetries budget, then fails, and the run still terminates with
// released admission slots.
func TestRetryBudgetExhaustionFailsOffload(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1 // failures must release slots or this deadlocks
	cfg.FaultPlan = &fault.Plan{Seed: 1, ReadTransient: 1}
	// FTL-level retries all fail too (rate 1), so every read step faults.
	results, _, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Failed {
			t.Errorf("tenant %d (%s): survived a 100%% fault rate", i, r.Workload)
		}
		if r.Retries != 16 {
			t.Errorf("tenant %d (%s): %d retries, want the 16-retry budget", i, r.Workload, r.Retries)
		}
		if r.Total <= 0 {
			t.Errorf("tenant %d: non-positive total %v", i, r.Total)
		}
	}
}

// The pooled-stack reset contract extends to circuit breakers: each run builds
// its own breaker set, so trips and open/half-open positions never leak
// across pooled-stack reuse — a fresh stack, the first pooled run and a
// recycled one replay a breaker-tripping scenario identically.
func TestBreakerStateNoLeakAcrossPooledReuse(t *testing.T) {
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.FaultPlan = &fault.Plan{Seed: 3, ReadTransient: 0.6}

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

}

// TestBackoffFor pins the step-retry delays: 100 µs doubling per attempt,
// capped at 2 ms.
func TestBackoffFor(t *testing.T) {
	for attempt, want := range []sim.Duration{100, 200, 400, 800, 1600, 2000, 2000} {
		if got := backoffFor(attempt); got != want*sim.Microsecond {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, want*sim.Microsecond)
		}
	}
	if got := backoffFor(maxStepRetries); got != stepBackoffCap {
		t.Errorf("backoffFor(%d) = %v, want the %v cap", maxStepRetries, got, stepBackoffCap)
	}
}

// TestBreakersSharedByName pins that tenants sharing an arrival key share
// one circuit breaker. Two instances of one trace replay under the same
// hostile plan, once with the default key (the trace name) and once with
// distinct ArrivalSchedule tenant keys; the key feeds nothing but the
// breaker, so the two runs differ only if the breaker is shared.
func TestBreakersSharedByName(t *testing.T) {
	a := recordTrace(t, "Filter")
	traces := []*workload.Trace{a, a}
	cfg := DefaultConfig()
	cfg.FaultPlan = &fault.Plan{Seed: 3, ReadTransient: 0.6}
	shared, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ArrivalSchedule = &trace.Schedule{Submissions: []trace.Submission{
		{Band: int(sched.PriorityNormal), Tenant: "t0"},
		{Band: int(sched.PriorityNormal), Tenant: "t1"},
	}}
	split, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared[0] == split[0] && shared[1] == split[1] {
		t.Fatal("shared and split tenant keys replay identically: the breaker is not shared by key")
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
