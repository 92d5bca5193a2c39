package sim

import (
	"errors"
	"testing"
)

// tripAt fails b breakerFailures times at instant at, tripping it.
func tripAt(t *testing.T, b *Breaker, at Time) {
	t.Helper()
	for i := 0; i < breakerFailures; i++ {
		if tripped := b.Failure(at); tripped != (i == breakerFailures-1) {
			t.Fatalf("failure %d at %d: tripped=%v", i+1, at, tripped)
		}
	}
}

func TestBreakerTripAfterKFailures(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < breakerFailures-1; i++ {
		if b.Failure(Time(i)) {
			t.Fatalf("failure %d tripped early", i+1)
		}
		if b.State() != BreakerClosed {
			t.Fatalf("state after failure %d = %v, want closed", i+1, b.State())
		}
	}
	if !b.Failure(Time(breakerFailures)) {
		t.Fatalf("failure %d did not trip", breakerFailures)
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d, want open/1", b.State(), b.Trips())
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := NewBreaker()
	for round := 0; round < 3; round++ {
		for i := 0; i < breakerFailures-1; i++ {
			b.Failure(Time(round*10 + i))
		}
		b.Success(Time(round*10 + 9))
	}
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Fatalf("state=%v trips=%d: interleaved successes should prevent tripping", b.State(), b.Trips())
	}
}

func TestBreakerOpenShedsUntilCooldown(t *testing.T) {
	b := NewBreaker()
	tripAt(t, b, 10) // open until 10 + 5 ms
	end := 10 + Time(breakerCooldown)
	until, err := b.Allow(end - 1)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if until != end {
		t.Fatalf("until = %d, want %d", until, end)
	}
	// At the cooldown boundary the breaker grants a half-open probe.
	granted, err := b.Allow(end)
	if err != nil || granted != end {
		t.Fatalf("probe grant = (%d, %v), want (%d, nil)", granted, err, end)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
}

func TestBreakerHalfOpenProbeOutcomes(t *testing.T) {
	// Probe success closes.
	b := NewBreaker()
	tripAt(t, b, 0)
	b.Allow(Time(breakerCooldown))
	b.Success(Time(breakerCooldown) + 1)
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	// Probe failure re-opens for another full cooldown on its first
	// failure, without counting to breakerFailures again.
	at := 20 * Millisecond
	tripAt(t, b, Time(at))
	probe := Time(at + breakerCooldown)
	b.Allow(probe)
	if !b.Failure(probe + 1) {
		t.Fatal("failed probe did not re-trip")
	}
	if b.State() != BreakerOpen || b.Trips() != 3 {
		t.Fatalf("state=%v trips=%d, want open/3", b.State(), b.Trips())
	}
	want := probe + 1 + Time(breakerCooldown)
	if until, err := b.Allow(probe + 2); !errors.Is(err, ErrCircuitOpen) || until != want {
		t.Fatalf("Allow after re-trip = (%d, %v), want (%d, ErrCircuitOpen)", until, err, want)
	}
}

// TestBreakerDefaults pins the values the replay's fault recovery is
// documented with: five consecutive failures trip the breaker, and it
// stays open for 5 ms.
func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < 4; i++ {
		if b.Failure(Time(i)) {
			t.Fatal("breaker tripped before 5 failures")
		}
	}
	if !b.Failure(4) {
		t.Fatal("breaker did not trip at 5 failures")
	}
	if until, err := b.Allow(4); err == nil || until != 4+Time(5*Millisecond) {
		t.Fatalf("cooldown end = %d, want %d", until, 4+Time(5*Millisecond))
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
