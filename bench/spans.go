package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent indexes the enclosing span in the recorder (-1 for a root).
type span struct {
	Name   string
	Req    int64
	Parent int32
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced path: every method returns at once and allocates nothing.
// It is safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginAt opens a span that started at the given instant and returns its
// id, or -1 on a nil recorder.
func (r *recorder) beginAt(name string, req int64, parent int32, at time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: at.Sub(r.epoch)})
	return int32(len(r.spans) - 1)
}

// begin opens a span starting now.
func (r *recorder) begin(name string, req int64, parent int32) int32 {
	if r == nil {
		return -1
	}
	return r.beginAt(name, req, parent, time.Now())
}

// endAt closes span id at the given instant.
func (r *recorder) endAt(id int32, at time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = at.Sub(r.epoch)
	r.mu.Unlock()
}

// end closes span id now.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.endAt(id, time.Now())
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time of the spans —
// each span's duration minus the part of it its children cover — and the
// summed duration of the root spans.
func selfTimes(spans []span) (self map[string]time.Duration, roots time.Duration) {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots += s.End - s.Start
		}
	}
	self = make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s, children[int32(i)])
	}
	return self, roots
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := parent.Start, parent.Start
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > hi {
			total += hi - lo
			lo = start
		}
		hi = max(hi, end)
	}
	return total + hi - lo
}

// maxTraceEvents caps the spans written to the trace file; the per-layer
// shares are computed from every span, the file keeps the first ones.
const maxTraceEvents = 20000

// traceEvent is one Chrome trace-event "complete" event. Each request is
// its own thread track, so a request's spans nest in the viewer.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) > maxTraceEvents {
		spans = spans[:maxTraceEvents]
	}
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Req,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"req": s.Req, "id": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
