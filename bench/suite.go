package main

import (
	"math"
	"strings"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

// suiteRunner is the paper-suite workload: every table and figure,
// serial and memoized, on one Suite whose traces set-up recorded. Each
// pass clears the result memo first, so every pass does the full work a
// fresh iceclave-bench run does after recording its traces.
type suiteRunner struct {
	suite  *experiments.Suite
	golden []string // the warm-up All() pass's tables, rendered
}

func setupSuite(o options) (runner, error) {
	s := experiments.NewSuite(o.seeded(o.size.suiteScale), core.DefaultConfig())
	for _, name := range workload.Names() {
		if _, err := s.Trace(name); err != nil {
			return nil, err
		}
	}
	return &suiteRunner{suite: s}, nil
}

// artifactMetric names an artifact's per-layer metric prefix, e.g.
// "Figure 12" -> "experiments.figure12".
func artifactMetric(id string) string {
	return "experiments." + strings.ToLower(strings.ReplaceAll(id, " ", ""))
}

// artifacts returns the suite's artifact generators in artifactIDs order,
// so each can be timed as its own span.
func (r *suiteRunner) artifacts() []func() (*stats.Table, error) {
	s := r.suite
	return []func() (*stats.Table, error){
		s.Table1, func() (*stats.Table, error) { return s.Table3(), nil },
		s.Figure5, s.Figure8, s.Table5, s.Table6, s.Figure11, s.Figure12,
		s.Figure13, s.Figure14, s.Figure15, s.Figure16, s.Figure17, s.Figure18,
		s.AdmissionTiming, s.TraceTiming, s.FaultTiming, s.FleetTiming,
	}
}

func (r *suiteRunner) warm() (*phase, error) {
	p := &phase{}
	tables, err := r.suite.All()
	if err != nil {
		return nil, err
	}
	if len(tables) != len(artifactIDs) {
		p.fail("All() returned %d tables, want %d", len(tables), len(artifactIDs))
	}
	for i, t := range tables {
		if len(t.Rows) == 0 {
			p.fail("All() table %s is empty", t.ID)
		}
		if i < len(artifactIDs) && t.ID != artifactIDs[i] {
			p.fail("All() table %d is %s, want %s", i, t.ID, artifactIDs[i])
		}
		r.golden = append(r.golden, t.String())
	}
	return p, nil
}

func (r *suiteRunner) measure(window time.Duration, rec *recorder) (*phase, error) {
	p := &phase{}
	gens := r.artifacts()
	var err error
	p.rounds, err = runRounds(window, func(pass int, rd *round) error {
		r.suite.ResetMemo()
		start := time.Now()
		root := rec.begin("pass", int64(pass), -1)
		for i, gen := range gens {
			id := rec.begin(artifactMetric(artifactIDs[i]), int64(pass), root)
			t, err := gen()
			rec.end(id)
			p.attempted++
			switch {
			case err != nil:
				p.failed++
				p.fail("%s: %v", artifactIDs[i], err)
			case i >= len(r.golden) || t.String() != r.golden[i]:
				p.fail("%s differs from the All() pass", artifactIDs[i])
			default:
				rd.work++
			}
		}
		rec.end(root)
		rd.lat = []float64{ms(time.Since(start))}
		return nil
	})
	return p, err
}

func (r *suiteRunner) layers(m map[string]float64) error {
	hits, misses := r.suite.MemoStats()
	if hits+misses > 0 {
		m["experiments.memo_hit_rate"] = 100 * float64(hits) / float64(hits+misses)
	}
	in, err := paperGapInputs(r.suite)
	if err != nil {
		return err
	}
	m["experiments.paper_gap_pct"] = in.gapPct()
	resultLayers(in.ice, m)
	// The last pass left the fault sweep memoized, so this replays nothing.
	sum, err := r.suite.FaultReplaySummary()
	if err != nil {
		return err
	}
	for _, sc := range sum.Scenarios {
		m["fault.retries"] += float64(sc.Retries)
		m["fault.breaker_trips"] += float64(sc.BreakerTrips)
		m["ftl.read_retries"] += float64(sc.ReadRetries)
		m["ftl.bad_blocks"] += float64(sc.BadBlocks)
	}
	if n := len(sum.Scenarios); n > 0 {
		m["fault.die_death_completed"] = float64(sum.Scenarios[n-1].Completed)
	}
	return nil
}

// The paper's headline results (§6): IceClave's average speedup over Host
// and over Host+SGX, its overhead over ISC, and the protected region's
// win over a secure-world mapping table.
const (
	paperHostSpeedup = 2.31
	paperSGXSpeedup  = 2.38
	paperISCOverhead = 0.076
	paperMapWin      = 0.216
)

// paperInputs are the simulator's values of the paper's four headline
// results, with Figure 5's and Figure 11's formulas.
type paperInputs struct {
	hostSpeedup, sgxSpeedup, iscOverhead, mapWin float64
	ice                                          []core.Result // default IceClave replay per workload
}

// paperGapInputs replays every standard workload of s under the five
// configurations Figures 5 and 11 compare, averaging in workload order as
// the figures do.
func paperGapInputs(s *experiments.Suite) (paperInputs, error) {
	var in paperInputs
	names := workload.Names()
	secure := s.Config
	secure.SecureWorldMapping = true
	for _, name := range names {
		tr, err := s.Trace(name)
		if err != nil {
			return in, err
		}
		var res [5]core.Result
		for i, run := range []struct {
			mode core.Mode
			cfg  core.Config
		}{
			{core.ModeHost, s.Config}, {core.ModeHostSGX, s.Config}, {core.ModeISC, s.Config},
			{core.ModeIceClave, s.Config}, {core.ModeIceClave, secure},
		} {
			if res[i], err = core.Run(tr, run.mode, run.cfg); err != nil {
				return in, err
			}
		}
		host, sgx, isc, ice, sec := res[0], res[1], res[2], res[3], res[4]
		in.hostSpeedup += ice.SpeedupOver(host)
		in.sgxSpeedup += ice.SpeedupOver(sgx)
		in.iscOverhead += float64(ice.Total-isc.Total) / float64(isc.Total)
		in.mapWin += float64(sec.Total)/float64(ice.Total) - 1
		in.ice = append(in.ice, ice)
	}
	n := float64(len(names))
	in.hostSpeedup /= n
	in.sgxSpeedup /= n
	in.iscOverhead /= n
	in.mapWin /= n
	return in, nil
}

// gapPct is the mean relative error of the four inputs against the paper,
// in percent.
func (in paperInputs) gapPct() float64 {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	return 100 * (rel(in.hostSpeedup, paperHostSpeedup) + rel(in.sgxSpeedup, paperSGXSpeedup) +
		rel(in.iscOverhead, paperISCOverhead) + rel(in.mapWin, paperMapWin)) / 4
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
