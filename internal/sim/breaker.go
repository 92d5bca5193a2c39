package sim

import "errors"

// ErrCircuitOpen is returned by Breaker.Allow while the circuit is open:
// the caller should shed the work instead of attempting it.
var ErrCircuitOpen = errors.New("sim: circuit open")

// BreakerState names the circuit's position.
type BreakerState uint8

// Breaker states.
const (
	// BreakerClosed: requests flow; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are shed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// The breaker's trip threshold and open interval.
const (
	breakerFailures = 5
	breakerCooldown = 5 * Millisecond
)

// Breaker is a per-tenant circuit breaker on the virtual clock. It trips
// open after breakerFailures consecutive failures, sheds requests with
// ErrCircuitOpen for breakerCooldown, then grants a single half-open probe
// whose outcome closes the circuit or re-opens it for another cooldown.
//
// Like every type in this package, Breaker is single-goroutine by
// contract: on the replay path it is mutated only from engine events, in
// deterministic (time, seq) order.
type Breaker struct {
	state       BreakerState
	consecutive int  // consecutive failures while closed
	until       Time // open until this instant
	trips       int
}

// NewBreaker builds a closed breaker.
func NewBreaker() *Breaker { return &Breaker{} }

// Allow reports whether a request arriving at time at may proceed.
// Closed (or half-open, for re-entrant probes) grants immediately. Open
// grants a half-open probe once the cooldown has elapsed; otherwise it
// returns the instant the cooldown ends and ErrCircuitOpen, so the
// caller can park the retry exactly until the probe window opens.
func (b *Breaker) Allow(at Time) (Time, error) {
	switch b.state {
	case BreakerOpen:
		if at < b.until {
			return b.until, ErrCircuitOpen
		}
		b.state = BreakerHalfOpen
		return at, nil
	default:
		return at, nil
	}
}

// Success records a completed request at time at, closing the circuit
// and clearing the consecutive-failure count.
func (b *Breaker) Success(at Time) {
	b.state = BreakerClosed
	b.consecutive = 0
}

// Failure records a failed request at time at. It returns true when this
// failure trips the circuit open (either the K-th consecutive failure
// while closed, or a failed half-open probe).
func (b *Breaker) Failure(at Time) bool {
	switch b.state {
	case BreakerHalfOpen:
		b.trip(at)
		return true
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= breakerFailures {
			b.trip(at)
			return true
		}
	}
	return false
}

func (b *Breaker) trip(at Time) {
	b.state = BreakerOpen
	b.consecutive = 0
	b.until = at + Time(breakerCooldown)
	b.trips++
}

// State returns the circuit's current position.
func (b *Breaker) State() BreakerState { return b.state }

// Trips returns how many times the circuit has opened.
func (b *Breaker) Trips() int { return b.trips }
