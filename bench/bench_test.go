package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

func tinyOptions(t *testing.T, seed uint64, traced bool) options {
	return options{seed: seed, window: 200 * time.Millisecond, traced: traced,
		size: tinySizes(), traceDir: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsEmitDeclaredMetrics runs every workload at the tiny sizes,
// untraced and traced, and checks each reports exactly the declared
// metrics with their units, passes its output checks, and fails nothing.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if testing.Short() && traced && w.name != "scan-replay" && w.name != "offload-steady" {
				continue
			}
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				o := tinyOptions(t, 1, traced)
				res, err := runWorkload(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, attempted %d, failed %d, checks %q",
						res.Correct, res.Attempted, res.Failed, res.checks)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.Name)
					case !metricName.MatchString(d.Name) || m.Unit == "" || m.Unit != d.Unit:
						t.Errorf("%s: bad name or unit %q", d.Name, m.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %g, want > 0", d.Name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(o.traceDir + "/bench-trace-" + w.name + ".json"); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables here identical.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better ||
				(g.Bound != nil) != bounded || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSameSeedSameSimulation checks a seed fixes every simulated metric,
// and that another seed draws another tenant mix.
func TestSameSeedSameSimulation(t *testing.T) {
	if !reflect.DeepEqual(mixSchedule(3, 64), mixSchedule(3, 64)) {
		t.Error("same seed, different tenant-mix schedules")
	}
	if reflect.DeepEqual(mixSchedule(3, 64), mixSchedule(4, 64)) {
		t.Error("seeds 3 and 4 drew the same tenant-mix schedule")
	}
	for _, name := range []string{"scan-replay", "tenant-mix"} {
		w, _ := workloadByName(name)
		var runs []*result
		for i := 0; i < 2; i++ {
			res, err := runWorkload(w, tinyOptions(t, 5, true))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, res)
		}
		for _, d := range perLayer {
			if a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value; d.Simulated && a != b {
				t.Errorf("%s %s: %g then %g with the same seed", name, d.Name, a, b)
			}
		}
	}
}

// TestPaperGapInputsMatchNotes checks the typed paper-gap inputs format
// exactly as the Figure 5 and Figure 11 notes report them.
func TestPaperGapInputsMatchNotes(t *testing.T) {
	s := experiments.NewSuite(workload.TinyScale(), core.DefaultConfig())
	in, err := paperGapInputs(s)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	f11, err := s.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want string }{
		{f5.Notes[0], fmt.Sprintf("average improvement from the protected region: %s (paper: 21.6%%)", stats.Pct(in.mapWin))},
		{f11.Notes[0], fmt.Sprintf("IceClave vs Host: %.2fx avg speedup (paper: 2.31x)", in.hostSpeedup)},
		{f11.Notes[1], fmt.Sprintf("IceClave vs Host+SGX: %.2fx avg speedup (paper: 2.38x)", in.sgxSpeedup)},
		{f11.Notes[2], fmt.Sprintf("IceClave overhead vs ISC: %s avg (paper: 7.6%%)", stats.Pct(in.iscOverhead))},
	} {
		if c.got != c.want {
			t.Errorf("note %q, typed inputs give %q", c.got, c.want)
		}
	}
	if again, err := paperGapInputs(s); err != nil || again.gapPct() != in.gapPct() {
		t.Errorf("paper gap %g then %g (%v)", in.gapPct(), again.gapPct(), err)
	}
}

func TestRecorderOffAllocatesNothing(t *testing.T) {
	var r *recorder
	allocs := testing.AllocsPerRun(100, func() {
		root := r.begin("offload", 1, -1)
		r.endAt(r.beginAt("sched.wait", 1, root, time.Time{}), time.Time{})
		r.end(root)
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %g times per call", allocs)
	}
}

func TestSpansNest(t *testing.T) {
	r := newRecorder()
	root := r.begin("offload", 7, -1)
	a := r.begin("tee.read", 7, root)
	r.end(a)
	b := r.begin("tee.write", 7, root)
	r.end(b)
	r.end(root)
	spans := r.snapshot()
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
		if s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End) {
			t.Errorf("%s is not inside its parent", s.Name)
		}
	}
	self, _ := selfTimes(spans)
	for name, d := range self {
		if d < 0 {
			t.Errorf("%s self time %v < 0", name, d)
		}
	}

	// Overlapping children cover their union once.
	synthetic := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "kid", Parent: 0, Start: 10, End: 30},
		{Name: "kid", Parent: 0, Start: 20, End: 50},
		{Name: "kid", Parent: 0, Start: 70, End: 80},
		{Name: "late", Parent: 0, Start: 95, End: 120},
	}
	self, roots := selfTimes(synthetic)
	if self["root"] != 45 || self["kid"] != 60 || roots != 100 {
		t.Errorf("self %v, roots %v; want root 45, kid 60, roots 100", self, roots)
	}
}

var busySink uint64

//go:noinline
func busyLoop(d time.Duration) {
	x := uint64(1)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	busySink = x
}

// TestProfileAttributesBusyLoop checks the profile reader puts at least
// 90% of a busy loop's host time in the loop's package.
func TestProfileAttributesBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	busyLoop(600 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var cpu time.Duration
	for _, s := range samples {
		cpu += time.Duration(s.value)
	}
	pkg := pkgOf(runtime.FuncForPC(reflect.ValueOf(busyLoop).Pointer()).Name())
	shares := leafShares(samples)
	if cpu < 200*time.Millisecond || shares[pkg] < 90 {
		t.Errorf("%v sampled, %.1f%% in %s; shares %v", cpu, shares[pkg], pkg, shares)
	}
	m := map[string]float64{}
	cpuMetrics(shares, m)
	var sum float64
	for _, v := range m {
		sum += v
	}
	if sum < 99.99 || sum > 100.01 {
		t.Errorf("cpu buckets sum to %g%%", sum)
	}
}

// TestQuartilesMatchPython pins the quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		if q1, med, q3 := quartiles(c.data); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.5); p != 3 {
		t.Errorf("p50 = %g, want 3", p)
	}
}

func TestAgree(t *testing.T) {
	// mk builds a two-run report per workload; set overrides one value.
	mk := func(p50, loadShare float64, set func(w string, run int, m map[string]metric)) *report {
		rep := &report{Seed: 1, Seconds: 10, Workloads: map[string]*workloadReport{}}
		for _, w := range []string{"scan-replay", "offload-steady"} {
			wr := &workloadReport{}
			for i := 0; i < 2; i++ {
				m := map[string]metric{
					"latency_p50_ms": {Value: p50},
					"sim.load_share": {Value: 40},
					"cmt.miss_rate":  {Value: 3},
				}
				if i == 1 {
					m["sim.load_share"] = metric{Value: loadShare}
				}
				if set != nil {
					set(w, i, m)
				}
				wr.Runs = append(wr.Runs, &result{Metrics: m})
			}
			wr.Summary = summarize(wr.Runs)
			rep.Workloads[w] = wr
		}
		return rep
	}
	base := mk(10, 40, nil)
	// Offload counters are not simulated, so they may differ.
	noisy := mk(10.5, 40, func(w string, run int, m map[string]metric) {
		if w == "offload-steady" && run == 1 {
			m["cmt.miss_rate"] = metric{Value: 5}
		}
	})
	if bad := agreement(base, noisy, io.Discard); len(bad) != 0 {
		t.Errorf("within bounds, yet %q", bad)
	}
	bad := agreement(base, mk(13, 41, nil), io.Discard)
	want := []string{"offload-steady/latency_p50_ms", "scan-replay/latency_p50_ms", "scan-replay/sim.load_share"}
	if len(bad) != len(want) {
		t.Fatalf("disagreements %q, want %q", bad, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(bad[i], w+":") {
			t.Errorf("disagreement %d is %q, want %s", i, bad[i], w)
		}
	}
}
