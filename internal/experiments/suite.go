// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each exported method of Suite produces one result as a
// stats.Table; All runs them in paper order, and `iceclave-bench
// -experiment` selects one by name.
//
// The suite runs serially by default; SetWorkers(n) spreads the
// independent (workload, mode, config) replays of each experiment across
// n goroutines. Replay results are memoized by (workload, mode, config) —
// replays are deterministic, so experiments sharing a configuration reuse
// one result (SetMemoize(false) restores replay-every-time). Output is
// deterministic either way: rows are assembled in workload order and note
// aggregates are summed in that same order, so a parallel or memoized run
// emits byte-identical tables to a serial cold one.
//
// Concurrency contract: Suite is safe for concurrent use — the trace and
// result caches are mutex-guarded with once-per-key population, and each
// replay worker builds a private system model. Call SetWorkers and
// SetMemoize before sharing a Suite; those knobs themselves are not
// synchronized.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"iceclave/internal/core"
	"iceclave/internal/stats"
	"iceclave/internal/trace"
	"iceclave/internal/workload"
)

// Suite shares recorded workload traces across experiments so each
// workload's functional execution happens once, and memoizes replay
// results by (workload, mode, config) so figures sharing a configuration
// (IceClave-default appears in Figures 5, 11, and 15, the Host baseline
// in 11 and 15, ...) replay it once per suite.
type Suite struct {
	Scale  workload.Scale
	Config core.Config

	workers int
	memoize bool
	mu      sync.Mutex
	traces  map[string]*traceEntry
	results map[runKey]*resultEntry

	// The trace-replay scenario (Timing 2): the embedded bursty fixture's
	// schedule and workload mix, parsed once per suite so every rerun
	// shares one schedule pointer — the identity the memo keys use.
	traceOnce  sync.Once
	traceSched *trace.Schedule
	traceMix   []string
	traceErr   error

	// The fault-injection sweep (Fault table): scenario plans built once
	// per suite so reruns share the same *fault.Plan pointers, for the
	// same memo-key-identity reason as the trace schedule.
	faultOnce  sync.Once
	faultScens []faultScenario

	// The fleet sweep (Fleet table): fleet fault plans built once per
	// suite — per-device plans derived from a FleetPlan are cached inside
	// it, so sharing the instance keeps device epochs memo hits.
	fleetOnce  sync.Once
	fleetScens []fleetScenario

	memoHits, memoMisses atomic.Int64
}

// traceEntry makes trace recording once-per-workload even when several
// experiment goroutines ask for the same trace concurrently.
type traceEntry struct {
	once sync.Once
	tr   *workload.Trace
	err  error
}

// runKey identifies one deterministic replay. core.Config is a flat
// comparable value, so the full configuration — seed included —
// participates in the comparison and two replays share a key exactly when
// core.Run would produce identical Results. Its two pointer fields
// (ArrivalSchedule, FaultPlan) compare by identity, which is why the
// suite caches the schedule and the fault plans: one instance per suite
// makes a rerun a memo hit. A multi-tenant
// key is the newline-joined mix under a "multi\n" prefix (workload names
// contain no newline, so a one-tenant mix can never collide with the
// single-tenant key of the same workload) — tenant order matters, since
// it decides offsets and seeds.
type runKey struct {
	name string
	mode core.Mode
	cfg  core.Config
}

// resultEntry makes each keyed replay once-per-suite; concurrent workers
// needing the same result share one execution. Multi-tenant replays
// populate multi and rstats, single-tenant replays res.
type resultEntry struct {
	once   sync.Once
	res    core.Result
	multi  []core.Result
	rstats core.RunStats
	err    error
}

// NewSuite returns a serial, memoizing suite at the given scale with the
// given base device configuration.
func NewSuite(sc workload.Scale, cfg core.Config) *Suite {
	return &Suite{
		Scale:   sc,
		Config:  cfg,
		workers: 1,
		memoize: true,
		traces:  make(map[string]*traceEntry),
		results: make(map[runKey]*resultEntry),
	}
}

// SetWorkers sets the replay parallelism (minimum 1, the serial path) and
// returns the suite for chaining.
func (s *Suite) SetWorkers(n int) *Suite {
	if n < 1 {
		n = 1
	}
	s.workers = n
	return s
}

// SetMemoize toggles the replay-result cache (on by default) and returns
// the suite for chaining. Turning it off makes every run replay fresh —
// the honest mode for wall-clock benchmarking of the replay engine.
func (s *Suite) SetMemoize(on bool) *Suite {
	s.memoize = on
	return s
}

// ResetMemo drops every cached replay result and zeroes the hit/miss
// counters; recorded traces are kept. Benchmark harnesses call this
// between timed passes so each pass does full work.
func (s *Suite) ResetMemo() {
	s.mu.Lock()
	s.results = make(map[runKey]*resultEntry)
	s.mu.Unlock()
	s.memoHits.Store(0)
	s.memoMisses.Store(0)
}

// MemoStats reports how many replays were served from the cache (hits)
// and how many actually ran (misses) since the last ResetMemo.
func (s *Suite) MemoStats() (hits, misses int64) {
	return s.memoHits.Load(), s.memoMisses.Load()
}

// Trace records (or returns the cached) trace for the named workload.
// Concurrent callers of the same name share one recording.
func (s *Suite) Trace(name string) (*workload.Trace, error) {
	s.mu.Lock()
	e, ok := s.traces[name]
	if !ok {
		e = &traceEntry{}
		s.traces[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		w, err := workload.ByName(name)
		if err != nil {
			e.err = err
			return
		}
		e.tr, e.err = workload.Record(w, s.Scale, 4096)
	})
	return e.tr, e.err
}

// run replays a workload under a mode with an optional config mutation.
func (s *Suite) run(name string, mode core.Mode, mut func(*core.Config)) (core.Result, error) {
	cfg := s.Config
	if mut != nil {
		mut(&cfg)
	}
	return s.runCfg(name, mode, cfg)
}

// runCfg replays (or returns the memoized result of) one deterministic
// (workload, mode, config) combination. Concurrent callers of the same
// key share a single replay, mirroring the trace cache.
func (s *Suite) runCfg(name string, mode core.Mode, cfg core.Config) (core.Result, error) {
	if !s.memoize {
		tr, err := s.Trace(name)
		if err != nil {
			return core.Result{}, err
		}
		return core.Run(tr, mode, cfg)
	}
	e := s.entryFor(runKey{name: name, mode: mode, cfg: cfg}, func(e *resultEntry) {
		tr, err := s.Trace(name)
		if err != nil {
			e.err = err
			return
		}
		e.res, e.err = core.Run(tr, mode, cfg)
	})
	return e.res, e.err
}

// runMulti replays (or returns the memoized results of) one collocated
// mix — the colo half of Figures 17/18 and both halves of the Timing
// table, whose uncapped runs are byte-identical to Figure 18's.
func (s *Suite) runMulti(mix []string, mode core.Mode, cfg core.Config) ([]core.Result, error) {
	out, _, err := s.runMultiStats(mix, mode, cfg)
	return out, err
}

// runMultiStats is runMulti surfacing the whole-run statistics (admission
// scheduling passes) alongside the memoized per-tenant results.
func (s *Suite) runMultiStats(mix []string, mode core.Mode, cfg core.Config) ([]core.Result, core.RunStats, error) {
	record := func(e *resultEntry) {
		traces := make([]*workload.Trace, len(mix))
		for i, name := range mix {
			tr, err := s.Trace(name)
			if err != nil {
				e.err = err
				return
			}
			traces[i] = tr
		}
		e.multi, e.rstats, e.err = core.RunMultiStats(traces, mode, cfg)
	}
	if !s.memoize {
		e := &resultEntry{}
		record(e)
		return e.multi, e.rstats, e.err
	}
	e := s.entryFor(runKey{name: "multi\n" + strings.Join(mix, "\n"), mode: mode, cfg: cfg}, record)
	return e.multi, e.rstats, e.err
}

// entryFor returns the memo entry for key, populating it via record
// exactly once across concurrent callers, and counts the hit or miss.
// Caller must have checked s.memoize.
func (s *Suite) entryFor(key runKey, record func(*resultEntry)) *resultEntry {
	s.mu.Lock()
	e, ok := s.results[key]
	if !ok {
		e = &resultEntry{}
		s.results[key] = e
	}
	s.mu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		record(e)
	})
	if hit {
		s.memoHits.Add(1)
	} else {
		s.memoMisses.Add(1)
	}
	return e
}

// mapIndexed runs fn(0..n-1) across up to s.workers goroutines; with one
// worker it runs inline in index order, exactly the serial path. After a
// failure, workers stop claiming further indices; the lowest-indexed
// error among the replays that actually ran is returned (which replays
// those are can vary with scheduling — only success output is guaranteed
// identical to the serial path).
func (s *Suite) mapIndexed(n int, fn func(i int) error) error {
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		outErr error
		errIdx = n
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true) // stop claiming further indices
					mu.Lock()
					if i < errIdx {
						outErr, errIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outErr
}

// rowOut is one workload's table row plus the aggregate terms the
// experiment folds into its notes (summed in workload order afterwards,
// keeping floating-point results identical across parallelism levels).
type rowOut struct {
	row []any
	aux []float64
}

// forEachRow computes one row per standard workload — in parallel across
// the suite's workers — and returns them in workload order.
func (s *Suite) forEachRow(fn func(name string) (rowOut, error)) ([]rowOut, error) {
	names := workload.Names()
	outs := make([]rowOut, len(names))
	err := s.mapIndexed(len(names), func(i int) error {
		ro, err := fn(names[i])
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		outs[i] = ro
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// sumAux folds column k of the aux vectors in row order.
func sumAux(rows []rowOut, k int) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.aux[k]
	}
	return sum
}

// addRows appends every collected row to t in order.
func addRows(t *stats.Table, rows []rowOut) {
	for _, r := range rows {
		t.AddRow(r.row...)
	}
}

// generators lists every paper artifact in order.
func (s *Suite) generators() []struct {
	name string
	fn   func() (*stats.Table, error)
} {
	return []struct {
		name string
		fn   func() (*stats.Table, error)
	}{
		{"Table 1", s.Table1},
		{"Table 3", func() (*stats.Table, error) { return s.Table3(), nil }},
		{"Figure 5", s.Figure5},
		{"Figure 8", s.Figure8},
		{"Table 5", s.Table5},
		{"Table 6", s.Table6},
		{"Figure 11", s.Figure11},
		{"Figure 12", s.Figure12},
		{"Figure 13", s.Figure13},
		{"Figure 14", s.Figure14},
		{"Figure 15", s.Figure15},
		{"Figure 16", s.Figure16},
		{"Figure 17", s.Figure17},
		{"Figure 18", s.Figure18},
		{"Timing 1", s.AdmissionTiming},
		{"Timing 2", s.TraceTiming},
		{"Fault", s.FaultTiming},
		{"Fleet", s.FleetTiming},
	}
}

// All regenerates every table and figure, in paper order. Each
// experiment's independent replays run across the suite's workers; the
// experiments themselves run in sequence so nested parallelism stays
// bounded by SetWorkers.
func (s *Suite) All() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, g := range s.generators() {
		t, err := g.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.name, err)
		}
		out = append(out, t)
	}
	return out, nil
}
