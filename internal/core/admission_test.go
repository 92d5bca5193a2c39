package core

import (
	"testing"

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
