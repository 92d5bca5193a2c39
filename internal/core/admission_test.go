package core

import (
	"testing"

	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// TestAdmissionCapsCreateQueueDelay is the acceptance pin for the
// virtual-time backbone: a multi-tenant run with one admission slot must
// report nonzero per-tenant queueing delay in core.Result, and that delay
// must be the predecessor's virtual completion time — admission, replay,
// and flash share one clock.
func TestAdmissionCapsCreateQueueDelay(t *testing.T) {
	a := recordTrace(t, "Filter")
	b := recordTrace(t, "Aggregate")
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1
	results, err := RunMulti([]*workload.Trace{a, b}, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, second := results[0], results[1]
	if first.QueueDelay != 0 {
		t.Fatalf("first tenant queued %v, want 0", first.QueueDelay)
	}
	if second.QueueDelay <= 0 {
		t.Fatalf("second tenant queued %v, want > 0", second.QueueDelay)
	}
	// With one slot the second tenant's grant is exactly the first
	// tenant's completion (including its TEE deletion cost).
	if second.QueueDelay != first.Total {
		t.Fatalf("second tenant queued %v, want the first tenant's total %v",
			second.QueueDelay, first.Total)
	}
	if second.Total <= second.QueueDelay {
		t.Fatalf("total %v does not include the queueing delay %v",
			second.Total, second.QueueDelay)
	}
}

// TestAdmissionUncappedMatchesDefault pins backward compatibility: with
// the zero-value admission config, RunMulti reports zero queueing delay
// and the single-trace path is unchanged by the backbone refactor.
func TestAdmissionUncappedMatchesDefault(t *testing.T) {
	a := recordTrace(t, "Filter")
	b := recordTrace(t, "Aggregate")
	results, err := RunMulti([]*workload.Trace{a, b}, ModeIceClave, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.QueueDelay != 0 {
			t.Fatalf("tenant %d queued %v with no admission caps", i, r.QueueDelay)
		}
	}
}

// TestAdmissionTenantSlotsSerializeSameWorkload pins the per-tenant cap:
// two instances of one workload name share a tenant key, so a per-tenant
// cap of one serializes them even with global slots to spare.
func TestAdmissionTenantSlotsSerializeSameWorkload(t *testing.T) {
	a := recordTrace(t, "Filter")
	cfg := DefaultConfig()
	cfg.AdmissionTenantSlots = 1
	results, err := RunMulti([]*workload.Trace{a, a}, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].QueueDelay != 0 {
		t.Fatalf("first instance queued %v, want 0", results[0].QueueDelay)
	}
	if results[1].QueueDelay != results[0].Total {
		t.Fatalf("second instance queued %v, want %v", results[1].QueueDelay, results[0].Total)
	}
}

// TestBatchedAdmissionAlignsGrantsToQuantum pins the batched-grant policy
// end to end through RunMulti: with one slot and a grant quantum, the
// second tenant's admission lands on the first quantum boundary at or
// after its predecessor's completion — later than (or equal to) the
// per-release grant, never earlier.
func TestBatchedAdmissionAlignsGrantsToQuantum(t *testing.T) {
	a := recordTrace(t, "Filter")
	b := recordTrace(t, "Aggregate")
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1
	perRelease, err := RunMulti([]*workload.Trace{a, b}, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const quantum = 1 * sim.Millisecond
	cfg.AdmissionQuantum = quantum
	cfg.AdmissionBatch = 1
	batched, err := RunMulti([]*workload.Trace{a, b}, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First tenant: admitted at the t=0 tick in both policies.
	if batched[0].QueueDelay != 0 {
		t.Fatalf("first tenant queued %v under batching, want 0", batched[0].QueueDelay)
	}
	got := batched[1].QueueDelay
	if got < perRelease[1].QueueDelay {
		t.Fatalf("batched grant %v earlier than per-release %v", got, perRelease[1].QueueDelay)
	}
	if sim.Time(got)%sim.Time(quantum) != 0 {
		t.Fatalf("batched grant %v not on a %v boundary", got, quantum)
	}
	want := (sim.Time(perRelease[1].QueueDelay) + sim.Time(quantum) - 1) / sim.Time(quantum) * sim.Time(quantum)
	if sim.Time(got) != want {
		t.Fatalf("batched grant %v, want first boundary %v after release %v",
			got, want, perRelease[1].QueueDelay)
	}
}

// TestAdaptiveQuantumTradesTicksForDelay pins the adaptive tick's trade:
// on a four-tenant mix queued behind two slots, a queue-scaled tick runs
// more scheduling passes than the fixed quantum but strictly less mean
// queueing delay.
func TestAdaptiveQuantumTradesTicksForDelay(t *testing.T) {
	traces := []*workload.Trace{
		recordTrace(t, "TPC-H Q1"),
		recordTrace(t, "Aggregate"),
		recordTrace(t, "TPC-B"),
		recordTrace(t, "Filter"),
	}
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.AdmissionQuantum = sim.Millisecond
	cfg.AdmissionBatch = 2
	fixed, fixedStats, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdmissionQuantumFloor = 125 * sim.Microsecond
	adaptive, adaptiveStats, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fixedStats.AdmissionTicks == 0 {
		t.Fatal("batched run reported no scheduling passes")
	}
	var fixedQ, adaptQ sim.Duration
	for i := range fixed {
		fixedQ += fixed[i].QueueDelay
		adaptQ += adaptive[i].QueueDelay
	}
	if adaptQ > fixedQ {
		t.Errorf("adaptive quantum increased queue delay: %v > %v", adaptQ, fixedQ)
	}
	if adaptQ == fixedQ && adaptiveStats.AdmissionTicks == fixedStats.AdmissionTicks {
		t.Errorf("adaptive quantum changed nothing (ticks %d, delay %v)",
			fixedStats.AdmissionTicks, fixedQ)
	}
	t.Logf("fixed: ticks=%d queue=%v; adaptive: ticks=%d queue=%v",
		fixedStats.AdmissionTicks, fixedQ, adaptiveStats.AdmissionTicks, adaptQ)
}
