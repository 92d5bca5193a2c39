package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/workload"
)

// sizes are the input sizes of the workloads. The full sizes come from
// prototype runs on a 2-core box (see README.md); tests use tinySizes.
type sizes struct {
	scale      workload.Scale // dataset scale; Seed is replaced by the run's seed
	suiteScale workload.Scale // paper-suite's dataset scale, seeded likewise
	mixTenants int            // tenants per tenant-mix replay
	rate       float64        // offload-steady arrivals per second
	burst      int            // offloads per offload-burst round
}

func fullSizes() sizes {
	return sizes{scale: workload.SmallScale(), suiteScale: quarterScale(), mixTenants: 66,
		rate: 4000, burst: 12000}
}

func tinySizes() sizes {
	return sizes{scale: workload.TinyScale(), suiteScale: workload.TinyScale(), mixTenants: 11,
		rate: 400, burst: 200}
}

// quarterScale is SmallScale with every dataset a quarter the size. A
// paper-suite pass then takes about 1.2 s instead of 5 s, so one run
// holds several passes to take the best of.
func quarterScale() workload.Scale {
	sc := workload.SmallScale()
	sc.LineitemRows /= 4
	sc.Accounts /= 4
	sc.TPCBTxns /= 4
	sc.StockRows /= 4
	sc.TPCCTxns /= 4
	sc.TextPages /= 4
	return sc
}

// options are one run's settings.
type options struct {
	seed     uint64        // seeds every generated input
	window   time.Duration // measurement time
	traced   bool          // per-layer run: spans, CPU profile, counters
	size     sizes
	traceDir string // where a traced run writes its Chrome trace
}

// seeded returns the dataset scale sc seeded with the run's seed.
func (o options) seeded(sc workload.Scale) workload.Scale {
	sc.Seed = o.seed
	return sc
}

// phase is what one measurement did, round by round.
type phase struct {
	attempted, failed int64
	rounds            []round
	checks            []string // output checks that failed
}

// round is one round of a workload: a suite pass, one replay of each
// trace, a tenant-mix replay, a burst, or windowLen of open-loop arrivals.
type round struct {
	elapsed time.Duration
	work    float64   // units of work completed (see workloadDef.work)
	lat     []float64 // per-operation latency, ms
}

func (p *phase) elapsed() time.Duration {
	var d time.Duration
	for _, r := range p.rounds {
		d += r.elapsed
	}
	return d
}

// fail records a failed output check once.
func (p *phase) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, c := range p.checks {
		if c == msg {
			return
		}
	}
	p.checks = append(p.checks, msg)
}

// runner is a set-up workload.
type runner interface {
	// warm runs one untimed round, so pools, caches and lazily built state
	// are in place before timing, and records the reference outputs later
	// rounds are checked against.
	warm() (*phase, error)
	// measure runs the workload for about window, recording spans on rec
	// when it is non-nil.
	measure(window time.Duration, rec *recorder) (*phase, error)
	// layers adds the per-layer counters of the workload's own outputs
	// from the last measured window.
	layers(m map[string]float64) error
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	work string // what work_per_s counts
	op   string // what one latency sample times
	// tail is the percentile reported as latency_tail_ms: the highest one
	// with at least ten samples beyond it in a traced run at the full size,
	// or the maximum when there are too few samples for any.
	tail float64
	// headline is the end-to-end metric trace_overhead_pct compares.
	headline string
	// replayed marks a workload whose outputs are virtual-time replay
	// results, so its Simulated per-layer metrics are exact per seed.
	replayed bool
	setup    func(o options) (runner, error)
}

var workloads = []*workloadDef{
	{
		name:     "paper-suite",
		why:      "What a researcher waits on: every paper table and figure, serial and memoized as iceclave-bench runs by default, at a quarter of SmallScale; sweeps, multi-tenant, Fault, Fleet.",
		work:     "artifacts rendered",
		op:       "one pass over all 18 artifacts",
		tail:     1,
		headline: "work_per_s",
		replayed: true,
		setup:    setupSuite,
	},
	{
		name:     "scan-replay",
		why:      "Read-only single-tenant IceClave replays of the 8 TPC-H traces and Wordcount: the MEE traffic model and counter cache dominate host time.",
		work:     "replayed trace steps",
		op:       "one round: a single-tenant core.RunMultiStats replay of each trace",
		tail:     0.9,
		headline: "work_per_s",
		replayed: true,
		setup:    setupReplay(scanTraces, 0),
	},
	{
		name:     "oltp-replay",
		why:      "TPC-B and TPC-C replays, half writes: the FTL write path (stage, commit, GC) and its uncontended locks run beside reads.",
		work:     "replayed trace steps",
		op:       "one round: a single-tenant core.RunMultiStats replay of each trace",
		tail:     0.85,
		headline: "work_per_s",
		replayed: true,
		setup:    setupReplay(oltpTraces, oltpMinPages),
	},
	{
		name:     "tenant-mix",
		why:      "66 tenants, each of the 11 traces six times, on an open-loop Poisson schedule behind 4 admission slots with seeded faults: deep admission queues, the event engine, retries, breakers.",
		work:     "replayed trace steps",
		op:       "one 66-tenant core.RunMultiStats replay",
		tail:     1,
		headline: "work_per_s",
		replayed: true,
		setup:    setupMix,
	},
	{
		name:     "offload-steady",
		why:      "Functional offloads through the TEE, Trivium and locked FTL path, Poisson open loop at 4000/s (about a quarter of capacity): library users' latency.",
		work:     "offloads completed",
		op:       "one offload, from its due time to Finish",
		tail:     0.99,
		headline: "latency_p50_ms",
		setup:    setupSteady,
	},
	{
		name:     "offload-burst",
		why:      "12000 offloads submitted at once and drained: capacity, plus the scheduler's dequeue cost with a deep queue, which offload-steady never builds.",
		work:     "offloads completed",
		op:       "one offload, from the burst's start to Finish",
		tail:     0.99,
		headline: "work_per_s",
		setup:    setupBurst,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// runRounds calls fn for round after round until window has elapsed, not
// starting a round that would end past it by the last round's duration;
// at least one runs. fn fills in the round's work and latencies; runRounds
// times it.
func runRounds(window time.Duration, fn func(i int, r *round) error) ([]round, error) {
	var out []round
	var total time.Duration
	for i := 0; ; i++ {
		var r round
		start := time.Now()
		if err := fn(i, &r); err != nil {
			return nil, err
		}
		r.elapsed = time.Since(start)
		out = append(out, r)
		if total += r.elapsed; total+r.elapsed > window {
			return out, nil
		}
	}
}

// windowLen is the length of the windows end-to-end throughput and median
// latency are computed over. The host's speed drifts with its neighbours'
// memory traffic, so a run reports its best window: the one least slowed
// by the machine rather than by the program.
const windowLen = 250 * time.Millisecond

// windows groups consecutive rounds into windows of at least windowLen;
// a shorter remainder joins the last window.
func windows(rs []round) []round {
	var out []round
	var cur round
	for _, r := range rs {
		cur.elapsed += r.elapsed
		cur.work += r.work
		cur.lat = append(cur.lat, r.lat...)
		if cur.elapsed >= windowLen {
			out, cur = append(out, cur), round{}
		}
	}
	switch {
	case len(out) == 0:
		out = append(out, cur)
	case cur.elapsed > 0:
		last := &out[len(out)-1]
		last.elapsed += cur.elapsed
		last.work += cur.work
		last.lat = append(last.lat, cur.lat...)
	}
	return out
}

// Set-up repeats at least minSetups times, and while it is cheap until
// setupBudget has passed (at most maxSetups), so setup_s is a median of
// several set-ups even for a fast one.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 250 * time.Millisecond
)

// result is one run's outcome, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	checks    []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload sets w up, warms it, measures it, and returns the run's
// end-to-end metrics — or, for a traced run, its per-layer metrics.
func runWorkload(w *workloadDef, o options) (*result, error) {
	var r runner
	var setups []float64
	begin := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget) {
		r = nil // let the previous set-up's memory go before building the next
		runtime.GC()
		t := time.Now()
		nr, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		r = nr
	}
	warm, err := r.warm()
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	res := &result{Metrics: map[string]metric{}, checks: warm.checks}
	add := func(p *phase) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.checks = append(res.checks, p.checks...)
	}
	var values map[string]float64
	if !o.traced {
		p, err := r.measure(o.window, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		add(p)
		values = endToEndValues(p)
		values["setup_s"] = median(setups)
		values["heap_live_mb"] = liveHeapMB()
		runtime.KeepAlive(r) // the set-up workload is what heap_live_mb measures
	} else {
		// The first half of the window is untraced, the second traced; the
		// difference in the headline metric is the tracing overhead.
		plain, err := r.measure(o.window/2, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		add(plain)
		tp, vals, err := traced(w, r, o)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		add(tp)
		values = vals
		values["trace_overhead_pct"] = overheadPct(w.headline,
			endToEndValues(plain)[w.headline], endToEndValues(tp)[w.headline])
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	res.Correct = len(res.checks) == 0
	return res, nil
}

// endToEndValues computes the best window's throughput and median latency.
func endToEndValues(p *phase) map[string]float64 {
	var best, p50 float64
	for i, win := range windows(p.rounds) {
		if win.elapsed > 0 {
			best = max(best, win.work/win.elapsed.Seconds())
		}
		if m := percentile(win.lat, 0.5); i == 0 || m < p50 {
			p50 = m
		}
	}
	return map[string]float64{"work_per_s": best, "latency_p50_ms": p50}
}

// overheadPct is how much worse the traced headline metric reads than the
// untraced one, in percent.
func overheadPct(headline string, plain, traced float64) float64 {
	if plain == 0 {
		return 0
	}
	if d, _ := lookupMetric(headline); d.Better == "higher" {
		return 100 * (plain - traced) / plain
	}
	return 100 * (traced - plain) / plain
}

// traced measures the second half of a traced run with spans and a CPU
// profile, writes the spans as a Chrome trace, and returns the window and
// its per-layer metrics (all but trace_overhead_pct).
func traced(w *workloadDef, r runner, o options) (*phase, map[string]float64, error) {
	m := map[string]float64{}
	rec := newRecorder()
	pool0 := core.PoolSnapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	p, err := r.measure(o.window/2, rec)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	pool1 := core.PoolSnapshot()

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	cpuMetrics(leafShares(samples), m)
	spans := rec.snapshot()
	self, roots := selfTimes(spans)
	for name, d := range self {
		if _, ok := lookupMetric(name + "_share"); ok && roots > 0 {
			m[name+"_share"] = 100 * float64(d) / float64(roots)
		}
	}
	if hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses; hits+misses > 0 {
		m["core.pool_hit_rate"] = 100 * float64(hits) / float64(hits+misses)
	}
	if el := p.elapsed(); el > 0 {
		m["core.setup_share"] = 100 * float64(pool1.SetupNs-pool0.SetupNs) / float64(el)
	}
	var lat []float64
	for _, r := range p.rounds {
		lat = append(lat, r.lat...)
	}
	m["latency_tail_ms"] = percentile(lat, w.tail)
	m["go.peak_rss_mb"] = peakRSSMB()
	if p.attempted > 0 {
		m["go.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(p.attempted)
	}
	if err := r.layers(m); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(o.traceDir, "bench-trace-"+w.name+".json")
	if err := writeChromeTrace(path, spans); err != nil {
		return nil, nil, err
	}
	return p, m, nil
}

// liveHeapMB is the heap still in use after a full collection, in MB: the
// memory the set-up workload holds, free of the collector's timing, which
// makes the peak resident size vary from run to run. The second
// collection empties the sync.Pool caches the first only ages.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
