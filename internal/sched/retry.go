package sched

import "iceclave/internal/sim"

// RetryPolicy is the virtual-time retry/backoff policy applied to a
// tenant's offload when a step fails with a recoverable fault. It is a
// pure value: the replay engine evaluates it on the virtual clock, so
// identical policies replay identically.
type RetryPolicy struct {
	// MaxRetries bounds the retries per offload; once exhausted the
	// offload fails permanently.
	MaxRetries int
	// Backoff is the delay before the first retry; each subsequent retry
	// doubles it, capped at BackoffCap.
	Backoff sim.Duration
	// BackoffCap caps the exponential growth. <= 0 means uncapped.
	BackoffCap sim.Duration
	// Timeout is the per-offload virtual deadline measured from the
	// offload's start; a fault observed past it fails the offload
	// immediately instead of retrying. <= 0 means no deadline.
	Timeout sim.Duration
}

// BackoffFor returns the capped exponential delay before retry attempt
// (0-based): Backoff << attempt, saturating at BackoffCap.
func (p RetryPolicy) BackoffFor(attempt int) sim.Duration {
	d := p.Backoff
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.BackoffCap > 0 && d >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if p.BackoffCap > 0 && d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// Breakers is a set of per-tenant circuit breakers keyed by tenant name,
// sharing one configuration. Like the breakers themselves it follows the
// sim single-goroutine contract: on the replay path it is touched only
// from engine events.
type Breakers struct {
	cfg sim.BreakerConfig
	m   map[string]*sim.Breaker
}

// NewBreakers builds an empty breaker set with the given per-breaker
// config (zero value for defaults).
func NewBreakers(cfg sim.BreakerConfig) *Breakers {
	return &Breakers{cfg: cfg, m: make(map[string]*sim.Breaker)}
}

// For returns tenant's breaker, creating it (closed) on first use.
// Tenants sharing a name share a breaker — the per-tenant semantics of
// the experiments, where a tenant is its workload identity.
func (bs *Breakers) For(tenant string) *sim.Breaker {
	b, ok := bs.m[tenant]
	if !ok {
		b = sim.NewBreaker(bs.cfg)
		bs.m[tenant] = b
	}
	return b
}

// Trips sums the trip counts across all breakers.
func (bs *Breakers) Trips() int {
	n := 0
	for _, b := range bs.m {
		n += b.Trips()
	}
	return n
}
