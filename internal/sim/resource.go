package sim

// Server models a contended FIFO resource with a fixed number of identical
// service units (e.g. a flash channel bus, a DRAM rank, a CPU core pool).
// Requests are admitted in arrival order; each occupies one unit for its
// service duration. Server is a virtual-time reservation calculator: it does
// not use the event queue, which keeps simulation of millions of requests
// cheap while still modelling queueing delay and contention exactly for
// FIFO service.
//
// The zero value is not usable; create servers with NewServer.
type Server struct {
	name string
	free []Time // next-free time per unit, maintained unsorted (k is small)

	busy     Duration // total busy time accumulated across units
	requests int64
	waited   Duration // total queueing delay endured by requests
}

// NewServer returns a Server with k service units. It panics if k < 1.
func NewServer(name string, k int) *Server {
	if k < 1 {
		panic("sim: NewServer needs at least one unit")
	}
	return &Server{name: name, free: make([]Time, k)}
}

// Name returns the label given at construction.
func (s *Server) Name() string { return s.name }

// Acquire reserves the earliest-available unit for a request arriving at
// time at with the given service duration. It returns the start and
// completion times. Contention appears as start > at.
func (s *Server) Acquire(at Time, service Duration) (start, done Time) {
	best := 0
	for i := 1; i < len(s.free); i++ {
		if s.free[i] < s.free[best] {
			best = i
		}
	}
	start = Max(at, s.free[best])
	done = start + service
	s.free[best] = done
	s.busy += service
	s.requests++
	s.waited += start - at
	return start, done
}

// NextFree returns the earliest time any unit becomes available.
func (s *Server) NextFree() Time {
	t := s.free[0]
	for _, f := range s.free[1:] {
		if f < t {
			t = f
		}
	}
	return t
}

// Busy returns the total busy time accumulated across all units.
func (s *Server) Busy() Duration { return s.busy }

// Requests returns the number of requests served.
func (s *Server) Requests() int64 { return s.requests }

// Waited returns the total queueing delay across all requests.
func (s *Server) Waited() Duration { return s.waited }

// Utilization reports the mean fraction of time the units were busy over
// the horizon [0, until].
func (s *Server) Utilization(until Time) float64 {
	if until <= 0 {
		return 0
	}
	return float64(s.busy) / (float64(until) * float64(len(s.free)))
}

// Reset returns the server to its initial idle state, keeping its identity.
func (s *Server) Reset() {
	for i := range s.free {
		s.free[i] = 0
	}
	s.busy, s.requests, s.waited = 0, 0, 0
}
