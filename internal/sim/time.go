// Package sim provides the discrete-event simulation substrate used by the
// IceClave computational-SSD model: a virtual clock, an event queue, and
// contended-resource servers.
//
// The package is deliberately free of goroutines; all simulated concurrency
// is expressed through virtual time so that runs are deterministic and
// reproducible.
//
// Concurrency contract: Engine, Server, and RNG are not safe for
// concurrent use — a simulation instance lives on one goroutine, which is
// what makes runs reproducible. Time and Duration are plain values; code
// that shares them across goroutines (e.g. the tee.Runtime clock)
// provides its own synchronization.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in nanoseconds from the start
// of the simulation. It is a distinct type to keep simulated time from being
// confused with wall-clock time.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations, mirroring the time package for readability at call
// sites such as 50*sim.Microsecond.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// Std converts a simulated duration to a time.Duration for display.
func (t Time) Std() time.Duration { return time.Duration(t) * time.Nanosecond }

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time using time.Duration notation (e.g. "50µs").
func (t Time) String() string { return t.Std().String() }

// MaxTime is the largest representable simulation time.
const MaxTime Time = 1<<63 - 1

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// DurationForBytes returns the time needed to move n bytes at the given
// bandwidth in bytes per second. It rounds up so that a nonzero transfer
// always takes nonzero time. It panics if bytesPerSec is not positive, since
// a zero-bandwidth link would hang the simulation silently.
func DurationForBytes(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: non-positive bandwidth %v", bytesPerSec))
	}
	if n <= 0 {
		return 0
	}
	d := Duration(float64(n) / bytesPerSec * float64(Second))
	if d == 0 {
		d = 1
	}
	return d
}
