package experiments

import (
	"strings"
	"testing"
)

// TestAdmissionTimingShowsQueueing pins the timing-mode table: every mix
// must report queued tenants with nonzero queueing delay, and capping
// admission can only slow a mix down relative to the uncapped replay.
func TestAdmissionTimingShowsQueueing(t *testing.T) {
	s := testSuite()
	tb, err := s.AdmissionTiming()
	rs := rows(t, tb, err)
	if len(rs) != len(admissionMixes) {
		t.Fatalf("rows = %d, want %d mixes", len(rs), len(admissionMixes))
	}
	for _, r := range rs {
		meanQ := cellFloat(t, r[1])
		if meanQ <= 0 {
			t.Fatalf("%s: mean queueing delay %v ms, want > 0 under a %d-slot cap",
				r[0], meanQ, admissionSlots)
		}
		if maxQ := cellFloat(t, r[2]); maxQ < meanQ {
			t.Fatalf("%s: max queue %v below mean %v", r[0], maxQ, meanQ)
		}
		// With 2 of 4 tenants admitted immediately, exactly the remainder
		// should have queued.
		if got := r[3]; !strings.HasPrefix(got, "2/") {
			t.Fatalf("%s: queued tenants = %q, want 2 of the mix", r[0], got)
		}
		// Capping can land on either side of 1x (queueing cost vs the
		// contention it removes) but must stay in a sane band.
		if ratio := cellFloat(t, r[4]); ratio < 0.5 || ratio > 3.0 {
			t.Fatalf("%s: capped/uncapped total = %vx, outside [0.5, 3.0]", r[0], ratio)
		}
	}
}
