package sim

import (
	"errors"
	"testing"
)

func TestBreakerTripAfterKFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 3, Cooldown: 100})
	for i := 0; i < 2; i++ {
		if b.Failure(Time(i)) {
			t.Fatalf("failure %d tripped early", i)
		}
		if b.State() != BreakerClosed {
			t.Fatalf("state after failure %d = %v, want closed", i, b.State())
		}
	}
	if !b.Failure(2) {
		t.Fatal("third failure did not trip")
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d, want open/1", b.State(), b.Trips())
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 3, Cooldown: 100})
	b.Failure(0)
	b.Failure(1)
	b.Success(2)
	b.Failure(3)
	b.Failure(4)
	if b.State() != BreakerClosed {
		t.Fatal("interleaved successes should prevent tripping")
	}
}

func TestBreakerOpenShedsUntilCooldown(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: 100})
	b.Failure(10) // trips; open until 110
	until, err := b.Allow(50)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if until != 110 {
		t.Fatalf("until = %d, want 110", until)
	}
	// At the cooldown boundary the breaker grants a half-open probe.
	granted, err := b.Allow(110)
	if err != nil || granted != 110 {
		t.Fatalf("probe grant = (%d, %v), want (110, nil)", granted, err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
}

func TestBreakerHalfOpenProbeOutcomes(t *testing.T) {
	// Probe success closes.
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: 100})
	b.Failure(0)
	b.Allow(100)
	b.Success(101)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	// Probe failure re-opens for another full cooldown. (With K=1 the
	// intermediate failure at t=200 is itself trip #2; the failed probe
	// is trip #3.)
	b.Failure(200)
	b.Allow(300)
	if !b.Failure(301) {
		t.Fatal("failed probe did not re-trip")
	}
	if b.State() != BreakerOpen || b.Trips() != 3 {
		t.Fatalf("state=%v trips=%d, want open/3", b.State(), b.Trips())
	}
	if until, err := b.Allow(302); !errors.Is(err, ErrCircuitOpen) || until != 301+100 {
		t.Fatalf("Allow after re-trip = (%d, %v), want (401, ErrCircuitOpen)", until, err)
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 4; i++ {
		if b.Failure(Time(i)) {
			t.Fatal("default breaker tripped before 5 failures")
		}
	}
	if !b.Failure(4) {
		t.Fatal("default breaker did not trip at 5 failures")
	}
	if until, err := b.Allow(4); err == nil || until != 4+Time(5*Millisecond) {
		t.Fatalf("default cooldown end = %d, want %d", until, 4+Time(5*Millisecond))
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
