// Package trace converts arrival traces into virtual-time submission
// schedules for the replay engine. Every workload in the experiment suite
// is otherwise a synthetic generator submitted at t=0, so the timing
// tables only ever measure saturation; a trace turns a mix into an
// open-loop arrival scenario — submissions fire at their recorded
// (virtual) instants, whether or not the device has caught up — and a
// classifier maps each entry onto the scheduler's three priority bands,
// so mixes exercise band logic that synthetic traffic left at
// PriorityNormal.
//
// The package reads CSV traces in one native schema
// (arrival_us,tenant,workload,class), sniffed from the header row; any
// other header is ErrUnknownFormat. Malformed input produces typed
// errors (*ParseError, ErrUnknownFormat), never panics or silent row
// drops: FuzzTraceReader pins that every non-blank data row is either
// parsed or reported.
//
// Concurrency contract: readers and schedule builders are pure functions
// over their input; a built Schedule is immutable by convention and safe
// to share across replays (core.RunMulti only reads it).
package trace

import (
	"errors"
	"fmt"
	"sort"

	"iceclave/internal/sim"
)

// Class is a latency class attached to a trace entry; it is what the
// classifier maps onto a priority band. The three classes mirror the
// scheduler's three bands: interactive traffic is latency-sensitive,
// batch traffic is throughput work that can wait, normal is everything
// between.
type Class int

// Latency classes, lowest to highest urgency. The numeric values align
// with the sched package's priority bands (PriorityLow..PriorityHigh), so
// Band is the identity — a deliberate coupling pinned by a test.
const (
	ClassBatch Class = iota
	ClassNormal
	ClassInteractive

	numClasses
)

// String names the class as the native schema spells it.
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassNormal:
		return "normal"
	case ClassInteractive:
		return "interactive"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Band maps the latency class onto the scheduler's priority bands
// (0 = low .. 2 = high): interactive traffic dispatches first, batch
// traffic last.
func (c Class) Band() int { return int(c) }

// Entry is one parsed trace record, format-independent: an arrival
// instant on the trace's own clock, the submitting tenant, the workload
// it submits (a standard workload name in the committed fixture), and
// the latency class the classifier assigned.
type Entry struct {
	Arrival  sim.Time
	Tenant   string
	Workload string
	Class    Class
}

// Submission is one scheduled arrival on the virtual clock: replay
// tenant Tenant submits workload Workload at virtual time At into
// priority band Band.
type Submission struct {
	At       sim.Time
	Tenant   string
	Workload string
	Band     int
}

// Schedule is a fixed open-loop arrival schedule: submissions in
// nondecreasing virtual-time order, with the earliest arrival at t=0.
// core.Config.ArrivalSchedule points at one of these; the zero value
// (nil pointer) means the closed t=0 semantics.
type Schedule struct {
	Submissions []Submission
}

// BuildSchedule orders entries by arrival (a stable sort, so same-instant
// entries keep their file order), shifts the earliest arrival to virtual
// time zero, and maps each entry's class onto its band. Out-of-order
// trace files are therefore fine: the schedule is sorted, not the file.
func BuildSchedule(entries []Entry) *Schedule {
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return entries[order[x]].Arrival < entries[order[y]].Arrival
	})
	s := &Schedule{Submissions: make([]Submission, len(entries))}
	var epoch sim.Time
	if len(order) > 0 {
		epoch = entries[order[0]].Arrival
	}
	for k, i := range order {
		e := entries[i]
		s.Submissions[k] = Submission{
			At:       e.Arrival - epoch,
			Tenant:   e.Tenant,
			Workload: e.Workload,
			Band:     e.Class.Band(),
		}
	}
	return s
}

// ParseSchedule is Read + BuildSchedule over an in-memory trace.
func ParseSchedule(data []byte) (*Schedule, Format, error) {
	entries, f, err := ReadBytes(data)
	if err != nil {
		return nil, f, err
	}
	return BuildSchedule(entries), f, nil
}

// Span returns the arrival span: the virtual time of the last submission
// (the first is always at zero).
func (s *Schedule) Span() sim.Duration {
	if len(s.Submissions) == 0 {
		return 0
	}
	return s.Submissions[len(s.Submissions)-1].At
}

// ErrUnknownFormat reports a header line that matches no known trace
// schema; Read wraps it with the offending header.
var ErrUnknownFormat = errors.New("trace: unrecognized trace header")

// ParseError is the typed per-row failure every reader returns for
// malformed input: the 1-based line number, the sniffed format, the field
// at fault, and what was wrong with it. Malformed rows are never silently
// dropped and never panic — they stop the read with one of these.
type ParseError struct {
	Line   int
	Format Format
	Field  string
	Reason string
}

// Error formats the failure with its location.
func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d (%s schema): field %q: %s", e.Line, e.Format, e.Field, e.Reason)
}
