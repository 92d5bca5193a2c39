package sched

import (
	"testing"

	"iceclave/internal/sim"
)

func TestBackoffFor(t *testing.T) {
	p := RetryPolicy{Backoff: 100, BackoffCap: 1000}
	want := []sim.Duration{100, 200, 400, 800, 1000, 1000}
	for attempt, w := range want {
		if got := p.BackoffFor(attempt); got != w {
			t.Errorf("BackoffFor(%d) = %d, want %d", attempt, got, w)
		}
	}
	// No cap: pure doubling.
	if got := (RetryPolicy{Backoff: 1}).BackoffFor(10); got != 1024 {
		t.Errorf("uncapped BackoffFor(10) = %d, want 1024", got)
	}
	// No base: no delay regardless of attempt.
	if got := (RetryPolicy{}).BackoffFor(5); got != 0 {
		t.Errorf("zero-policy BackoffFor(5) = %d, want 0", got)
	}
}

func TestBreakersSharedByName(t *testing.T) {
	bs := NewBreakers(sim.BreakerConfig{Failures: 1, Cooldown: 10})
	a := bs.For("tenant-a")
	if bs.For("tenant-a") != a {
		t.Fatal("same name must return the same breaker")
	}
	b := bs.For("tenant-b")
	if a == b {
		t.Fatal("different names must not share a breaker")
	}
	a.Failure(0)
	b.Failure(0)
	a.Allow(10)
	a.Failure(11)
	if got := bs.Trips(); got != 3 {
		t.Fatalf("Trips() = %d, want 3", got)
	}
}
