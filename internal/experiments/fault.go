package experiments

import (
	"fmt"
	"sort"

	"iceclave/internal/core"
	"iceclave/internal/fault"
	"iceclave/internal/sim"
	"iceclave/internal/stats"
)

// faultMix is the six-tenant collocation the fault table degrades: a
// representative spread of scan-heavy, write-heavy, and compute-heavy
// workloads, so recovery cost shows up in reads, programs, and MAC
// verification alike.
var faultMix = []string{"TPC-H Q1", "TPC-B", "Filter", "Aggregate", "TPC-H Q12", "Arithmetic"}

// FaultReplaySlots is the admission cap the fault scenarios run under:
// the same contended regime as the timing tables, so breaker sheds and
// failure-path slot releases are exercised, not just straight-line
// retries.
const FaultReplaySlots = 2

// faultScenario is one named point on the fault-rate sweep. A nil plan
// is the fault-free baseline — the replay must not even observe that the
// sweep exists (the zero-plan bit-identity contract).
type faultScenario struct {
	name string
	plan *fault.Plan
}

// faultScenarios builds the sweep once per suite so every rerun shares
// the same *fault.Plan instances — plan pointers participate in the memo
// key, so cached construction is what makes a rerun a memo hit instead
// of a fresh replay.
func (s *Suite) faultScenarios() []faultScenario {
	s.faultOnce.Do(func() {
		mk := func(read, prog, mac float64, deaths ...fault.DieDeath) *fault.Plan {
			return &fault.Plan{Seed: 42, ReadTransient: read, ProgramFail: prog,
				MACFail: mac, DieDeaths: deaths}
		}
		s.faultScens = []faultScenario{
			{"fault-free", nil},
			{"0.5% faults", mk(0.005, 0.001, 0.0005)},
			{"2% faults", mk(0.02, 0.005, 0.002)},
			{"5% faults", mk(0.05, 0.01, 0.005)},
			{"2% + die deaths", mk(0.02, 0.005, 0.002,
				fault.DieDeath{Channel: 1, Die: 0, At: sim.Time(2 * sim.Millisecond)},
				fault.DieDeath{Channel: 2, Die: 1, At: sim.Time(4 * sim.Millisecond)})},
		}
	})
	return s.faultScens
}

// FaultScenarioStat summarizes one scenario of the fault sweep:
// completion and goodput under the scenario's injected fault rates, the
// sojourn distribution across tenants, and the recovery work every layer
// performed (step retries and breaker trips in the replay, read reissues
// and block/die retirement in the FTL).
type FaultScenarioStat struct {
	Scenario  string
	Tenants   int
	Completed int
	// GoodputPerSec is completed work — the flash pages read and written
	// by tenants that finished — per simulated second of makespan. Pages,
	// not offloads: a failed heavy tenant shortens the makespan, and an
	// unweighted rate would report that loss as a speedup.
	GoodputPerSec float64
	MeanSojourn   sim.Duration
	P99Sojourn    sim.Duration
	MaxSojourn    sim.Duration
	Retries       int   // step-level replay retries across tenants
	BreakerTrips  int   // circuit-breaker opens across tenants
	ReadRetries   int64 // FTL transient-read reissues
	BadBlocks     int64 // blocks retired after program failures
	DeadDies      int64 // dies retired by the die-death script
	ReadFaults    int64 // injected device-level read aborts
	ProgramFaults int64 // injected device-level program aborts
}

// FaultReplaySummary is the scenario sweep the Fault table renders and
// the bench record embeds as its fault_replay section.
type FaultReplaySummary struct {
	Mix       []string
	Slots     int
	Scenarios []FaultScenarioStat
}

// percentile returns the p-quantile of the (unsorted) durations by the
// nearest-rank method; with fewer than 1/(1-p) samples it equals the max.
func percentile(ds []sim.Duration, p float64) sim.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*p+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FaultReplaySummary replays the fault mix once per scenario — fault-free
// baseline, three probabilistic rates, and a scripted die-death run — and
// summarizes goodput, sojourn, and recovery work for each. Scenarios run
// across the suite's workers; plans are seeded and decisions keyed on
// per-channel ordinals, so every scenario is deterministic and memoizable
// like any other replay.
func (s *Suite) FaultReplaySummary() (FaultReplaySummary, error) {
	scens := s.faultScenarios()
	var totalPages int64
	work := make([]int64, len(faultMix)) // per-tenant goodput weight
	for i, name := range faultMix {
		tr, err := s.Trace(name)
		if err != nil {
			return FaultReplaySummary{}, err
		}
		totalPages += core.Footprint(tr)
		work[i] = tr.Meter.PagesRead + tr.Meter.PagesWritten
	}
	out := FaultReplaySummary{Mix: faultMix, Slots: FaultReplaySlots,
		Scenarios: make([]FaultScenarioStat, len(scens))}
	err := s.mapIndexed(len(scens), func(i int) error {
		cfg := s.Config
		cfg.MinFlashPages = totalPages
		cfg.AdmissionSlots = FaultReplaySlots
		cfg.FaultPlan = scens[i].plan
		results, rstats, err := s.runMultiStats(faultMix, core.ModeIceClave, cfg)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", scens[i].name, err)
		}
		st := FaultScenarioStat{
			Scenario:      scens[i].name,
			Tenants:       len(results),
			ReadRetries:   rstats.FTL.ReadRetries,
			BadBlocks:     rstats.FTL.BadBlocks,
			DeadDies:      rstats.FTL.DeadDies,
			ReadFaults:    rstats.Flash.ReadFaults,
			ProgramFaults: rstats.Flash.ProgramFaults,
		}
		sojourns := make([]sim.Duration, 0, len(results))
		var sum, makespan sim.Duration
		var donePages int64
		for j, r := range results {
			if !r.Failed {
				st.Completed++
				donePages += work[j]
			}
			st.Retries += r.Retries
			st.BreakerTrips += r.BreakerTrips
			sojourns = append(sojourns, r.Total)
			sum += r.Total
			if r.Total > makespan {
				makespan = r.Total
			}
		}
		st.MeanSojourn = sum / sim.Duration(len(results))
		st.P99Sojourn = percentile(sojourns, 0.99)
		st.MaxSojourn = makespan
		if makespan > 0 {
			st.GoodputPerSec = float64(donePages) / (float64(makespan) / 1e9)
		}
		out.Scenarios[i] = st
		return nil
	})
	if err != nil {
		return FaultReplaySummary{}, err
	}
	return out, nil
}

// FaultTiming is the Fault table: end-to-end degradation under the
// deterministic fault sweep. Each row replays the same six-tenant mix
// under one injection scenario and reports what survived (completions,
// goodput), what it cost (sojourn distribution), and the recovery work
// every layer performed to get there (step retries and breaker trips in
// the replay, read reissues and bad-block/die retirement in the FTL).
func (s *Suite) FaultTiming() (*stats.Table, error) {
	sum, err := s.FaultReplaySummary()
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		ID: "Fault",
		Title: fmt.Sprintf("Deterministic fault injection and recovery (%d tenants, %d slots)",
			len(sum.Mix), sum.Slots),
		Header: []string{"Scenario", "Completed", "Goodput (pages/s)", "Mean sojourn (ms)",
			"p99 sojourn (ms)", "Max sojourn (ms)", "Retries", "Breaker trips",
			"Bad blocks", "Dead dies"},
	}
	ms := func(d sim.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	base := sum.Scenarios[0]
	for _, sc := range sum.Scenarios {
		t.AddRow(sc.Scenario, fmt.Sprintf("%d/%d", sc.Completed, sc.Tenants),
			fmt.Sprintf("%.0f", sc.GoodputPerSec), ms(sc.MeanSojourn), ms(sc.P99Sojourn),
			ms(sc.MaxSojourn), fmt.Sprintf("%d", sc.Retries), fmt.Sprintf("%d", sc.BreakerTrips),
			fmt.Sprintf("%d", sc.BadBlocks), fmt.Sprintf("%d", sc.DeadDies))
	}
	last := sum.Scenarios[len(sum.Scenarios)-1]
	t.AddNote("plans are seeded and fault decisions keyed on per-channel op ordinals: every scenario "+
		"replays bit-identically across reruns and pooled stacks; the fault-free "+
		"row is byte-identical to a run with no plan at all (goodput %.0f pages/s baseline)",
		base.GoodputPerSec)
	t.AddNote("goodput counts only pages of tenants that completed, over the run's makespan — a failed " +
		"tenant's work is lost throughput, not a shorter run")
	t.AddNote("recovery is layered: the FTL reissues transient reads and retires failing blocks "+
		"(invisible to the tenant until its budget is spent), the replay retries surviving failures "+
		"with virtual-time backoff, and per-tenant breakers shed during sustained faults — the die-death "+
		"scenario retires %d die(s) and still completes %d/%d tenants", last.DeadDies,
		last.Completed, last.Tenants)
	t.AddNote("p99 by nearest rank over %d tenants (equals max below 100 samples)", len(sum.Mix))
	return t, nil
}
