package core

import (
	"fmt"
	"strings"
	"testing"

	"iceclave/internal/sched"
	"iceclave/internal/sim"
	"iceclave/internal/trace"
	"iceclave/internal/workload"
)

// t0NormalSchedule is the schedule that must be semantically invisible:
// every tenant at virtual time zero, PriorityNormal, default (trace-name)
// tenant keys — exactly what a nil ArrivalSchedule does.
func t0NormalSchedule(n int) *trace.Schedule {
	s := &trace.Schedule{Submissions: make([]trace.Submission, n)}
	for i := range s.Submissions {
		s.Submissions[i] = trace.Submission{At: 0, Band: int(sched.PriorityNormal)}
	}
	return s
}

// TestZeroScheduleMatchesNilSchedule pins the defaults a nil
// ArrivalSchedule stands for: an explicit schedule of every tenant at t=0,
// PriorityNormal, keyed by its trace name, must reproduce the
// nil-schedule results bit-identically — under no cap and under a global
// cap.
func TestZeroScheduleMatchesNilSchedule(t *testing.T) {
	a := recordTrace(t, "Filter")
	b := recordTrace(t, "Aggregate")
	traces := []*workload.Trace{a, b}
	muts := map[string]func(*Config){
		"uncapped": func(*Config) {},
		"slots=1":  func(c *Config) { c.AdmissionSlots = 1 },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mut(&cfg)
			closed, err := RunMulti(traces, ModeIceClave, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.ArrivalSchedule = t0NormalSchedule(len(traces))
			open, err := RunMulti(traces, ModeIceClave, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range closed {
				if open[i] != closed[i] {
					t.Fatalf("tenant %d diverges under a zero-value schedule:\n%+v\nvs\n%+v",
						i, open[i], closed[i])
				}
			}
		})
	}
}

// TestScheduledArrivalQueueDelayExcludesIdle is the acceptance pin for the
// open-loop queueing definition: with one slot, a tenant arriving mid-way
// through its predecessor's run waits exactly (predecessor completion -
// its own arrival) — and a tenant arriving after the predecessor finishes
// waits nothing, no matter how long the gate sat idle first.
func TestScheduledArrivalQueueDelayExcludesIdle(t *testing.T) {
	a := recordTrace(t, "Filter")
	b := recordTrace(t, "Aggregate")
	traces := []*workload.Trace{a, b}
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1
	closed, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := sim.Time(closed[0].Total) // first tenant's completion instant

	arrival := sim.Time(1 * sim.Millisecond)
	if c1 <= arrival {
		t.Fatalf("first tenant finishes at %v, before the %v test arrival", c1, arrival)
	}
	mid := &trace.Schedule{Submissions: []trace.Submission{
		{At: 0, Band: int(sched.PriorityNormal)},
		{At: arrival, Band: int(sched.PriorityNormal)},
	}}
	cfg.ArrivalSchedule = mid
	open, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if open[0] != closed[0] {
		t.Fatalf("first tenant changed by the second's arrival time:\n%+v\nvs\n%+v", open[0], closed[0])
	}
	if got, want := open[1].QueueDelay, sim.Duration(c1-arrival); got != want {
		t.Fatalf("mid-run arrival queued %v, want completion - arrival = %v", got, want)
	}
	if open[1].Total <= open[1].QueueDelay {
		t.Fatalf("total %v does not extend past the queueing delay %v", open[1].Total, open[1].QueueDelay)
	}

	// Arriving after the predecessor completes: the slot is free, the wait
	// is zero — the idle interval between c1 and the arrival never shows up.
	late := &trace.Schedule{Submissions: []trace.Submission{
		{At: 0, Band: int(sched.PriorityNormal)},
		{At: c1 + sim.Time(1*sim.Millisecond), Band: int(sched.PriorityNormal)},
	}}
	cfg.ArrivalSchedule = late
	idle, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idle[1].QueueDelay != 0 {
		t.Fatalf("post-completion arrival queued %v, want 0", idle[1].QueueDelay)
	}
}

// TestEqualArrivalsGrantInBandOrder pins band-aware admission end to end
// through RunMulti: three instances of one workload arriving at the same
// virtual instant under a one-slot cap are granted high, normal, low —
// each successor's queueing delay is its predecessor-by-band's completion
// time minus nothing (all arrivals at t=0).
func TestEqualArrivalsGrantInBandOrder(t *testing.T) {
	a := recordTrace(t, "Filter")
	traces := []*workload.Trace{a, a, a}
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1
	// Schedule order deliberately inverts band order: low, normal, high.
	cfg.ArrivalSchedule = &trace.Schedule{Submissions: []trace.Submission{
		{At: 0, Tenant: "batch-job", Band: int(sched.PriorityLow)},
		{At: 0, Tenant: "default-job", Band: int(sched.PriorityNormal)},
		{At: 0, Tenant: "frontend", Band: int(sched.PriorityHigh)},
	}}
	res, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	low, normal, high := res[0], res[1], res[2]
	if high.QueueDelay != 0 {
		t.Fatalf("high-band tenant queued %v, want immediate grant", high.QueueDelay)
	}
	if normal.QueueDelay != high.Total {
		t.Fatalf("normal-band tenant queued %v, want the high tenant's completion %v",
			normal.QueueDelay, high.Total)
	}
	if low.QueueDelay != normal.Total {
		t.Fatalf("low-band tenant queued %v, want the normal tenant's completion %v",
			low.QueueDelay, normal.Total)
	}
}

// TestScheduledRunIdenticalToFreshWhenPooled extends the PR 6 reset
// contract to open-loop playback: a trace-scheduled multi-tenant run on a
// recycled replay stack must produce Results — QueueDelay included —
// identical to a fresh-allocation run of the same schedule.
func TestScheduledRunIdenticalToFreshWhenPooled(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	a := recordTrace(t, "Filter")
	b := recordTrace(t, "Aggregate")
	traces := []*workload.Trace{a, b}
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 1
	cfg.ArrivalSchedule = &trace.Schedule{Submissions: []trace.Submission{
		{At: 0, Tenant: "t-a", Band: int(sched.PriorityLow)},
		{At: 2500 * sim.Microsecond, Tenant: "t-b", Band: int(sched.PriorityHigh)},
	}}
	SetPooling(false)
	ResetPool()
	fresh, err := RunMulti(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetPooling(true)
	warm, err := RunMulti(traces, ModeIceClave, cfg) // builds, then pools its stack
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunMulti(traces, ModeIceClave, cfg) // runs on the recycled stack
	if err != nil {
		t.Fatal(err)
	}
	if st := PoolSnapshot(); st.Hits == 0 {
		t.Fatalf("second pooled run did not hit the pool: %+v", st)
	}
	for i := range fresh {
		if warm[i] != fresh[i] {
			t.Fatalf("tenant %d: pooling-enabled fresh build diverges:\n%+v\nvs\n%+v", i, warm[i], fresh[i])
		}
		if pooled[i] != fresh[i] {
			t.Fatalf("tenant %d: recycled-stack scheduled run diverges:\n%+v\nvs\n%+v", i, pooled[i], fresh[i])
		}
	}
}

// TestArrivalScheduleLengthMismatch pins the validation: a schedule whose
// submission count disagrees with the trace count is a configuration
// error, not a silent truncation.
func TestArrivalScheduleLengthMismatch(t *testing.T) {
	a := recordTrace(t, "Filter")
	cfg := DefaultConfig()
	cfg.ArrivalSchedule = t0NormalSchedule(3)
	_, err := RunMulti([]*workload.Trace{a}, ModeIceClave, cfg)
	if err == nil || !strings.Contains(err.Error(), "3 submissions for 1 traces") {
		t.Fatalf("error = %v, want a submission/trace count mismatch", err)
	}
}

// TestArrivalScheduleBandOutOfRange pins the band validation: a
// submission outside the three priority bands is a configuration error,
// not a replay in some other band.
func TestArrivalScheduleBandOutOfRange(t *testing.T) {
	a := recordTrace(t, "Filter")
	for _, band := range []int{-1, 3} {
		cfg := DefaultConfig()
		cfg.ArrivalSchedule = &trace.Schedule{Submissions: []trace.Submission{{At: 0, Band: band}}}
		_, err := RunMulti([]*workload.Trace{a}, ModeIceClave, cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("band %d", band)) {
			t.Fatalf("band %d: error = %v, want a band-range error", band, err)
		}
	}
}
