package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/fault"
	"iceclave/internal/ftl"
	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/trace"
	"iceclave/internal/workload"
)

var (
	scanTraces = []string{"Arithmetic", "Aggregate", "Filter", "TPC-H Q1", "TPC-H Q3",
		"TPC-H Q12", "TPC-H Q14", "TPC-H Q19", "Wordcount"}
	oltpTraces = []string{"TPC-B", "TPC-C"}
)

// replayRunner replays recorded traces one tenant at a time under the
// IceClave mode, round after round; scan-replay and oltp-replay differ
// only in their traces.
type replayRunner struct {
	traces []*workload.Trace
	spans  []string // span name of each trace's replay
	cfg    core.Config
	first  [][]core.Result // the warm-up round's results, per trace
	stats  []core.RunStats // the warm-up round's run statistics, per trace
}

// oltpMinPages sizes oltp-replay's device for both traces at every seed
// (10 blocks per plane). Sized per trace, TPC-C's device gets 9 or 10
// blocks per plane depending on how many pages the seed's transactions
// write, and the resource pool then holds one replay stack or two.
const oltpMinPages = 48_000

// setupReplay records the named traces for replay on a device of at least
// minPages pages (0 sizes it to each trace).
func setupReplay(names []string, minPages int64) func(o options) (runner, error) {
	return func(o options) (runner, error) {
		r := &replayRunner{cfg: core.DefaultConfig()}
		r.cfg.MinFlashPages = minPages
		for _, name := range names {
			tr, err := record(name, o.seeded(o.size.scale))
			if err != nil {
				return nil, err
			}
			r.traces = append(r.traces, tr)
			r.spans = append(r.spans, "replay "+name)
		}
		return r, nil
	}
}

// record records one standard workload's trace at the suite's page size.
func record(name string, sc workload.Scale) (*workload.Trace, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.Record(w, sc, 4096)
}

// steps is the replay work one trace represents.
func steps(traces ...*workload.Trace) float64 {
	var n int
	for _, tr := range traces {
		n += len(tr.Steps)
	}
	return float64(n)
}

func (r *replayRunner) warm() (*phase, error) {
	p := &phase{}
	for _, tr := range r.traces {
		res, st, err := core.RunMultiStats([]*workload.Trace{tr}, core.ModeIceClave, r.cfg)
		if err != nil {
			return nil, err
		}
		checkNoFailed(p, res)
		r.first = append(r.first, res)
		r.stats = append(r.stats, st)
	}
	return p, nil
}

func (r *replayRunner) measure(window time.Duration, rec *recorder) (*phase, error) {
	p := &phase{}
	var err error
	p.rounds, err = runRounds(window, func(i int, rd *round) error {
		start := time.Now()
		root := rec.begin("round", int64(i), -1)
		for k, tr := range r.traces {
			id := rec.begin(r.spans[k], int64(i), root)
			res, _, err := core.RunMultiStats([]*workload.Trace{tr}, core.ModeIceClave, r.cfg)
			rec.end(id)
			if err != nil {
				return err
			}
			p.attempted++
			if checkNoFailed(p, res) {
				p.failed++
			}
			if !reflect.DeepEqual(res, r.first[k]) {
				p.fail("%s: replay results differ from the first replay's", tr.Name)
			}
			rd.work += steps(tr)
		}
		rec.end(root)
		rd.lat = []float64{ms(time.Since(start))}
		return nil
	})
	return p, err
}

func (r *replayRunner) layers(m map[string]float64) error {
	var all []core.Result
	var st ftl.Stats
	for i, res := range r.first {
		all = append(all, res...)
		st = addFTL(st, r.stats[i].FTL)
	}
	resultLayers(all, m)
	ftlLayers(st, m)
	return nil
}

// checkNoFailed records a failed check for every replay that gave up and
// reports whether any did.
func checkNoFailed(p *phase, results []core.Result) bool {
	failed := false
	for _, r := range results {
		if r.Failed {
			p.fail("%s: replay failed", r.Workload)
			failed = true
		}
	}
	return failed
}

// mixRunner is the tenant-mix workload: one many-tenant replay per round
// on an open-loop arrival schedule, behind admission slots, under a
// seeded fault plan.
type mixRunner struct {
	traces []*workload.Trace // one per submission, in schedule order
	cfg    core.Config
	first  []core.Result
	stats  core.RunStats // the warm-up replay's run statistics
}

// Tenant-mix settings: admission slots, mean arrival gap, and the fault
// rates (transient read, program, MAC). The mix leaves out die deaths:
// with one, every tenant fails and the run would time only that path.
const (
	mixSlots        = 4
	mixGap          = 2 * sim.Millisecond
	mixReadFault    = 0.005
	mixProgramFault = 0.001
	mixMACFault     = 0.0005
)

func setupMix(o options) (runner, error) {
	sched := mixSchedule(o.seed, o.size.mixTenants)
	byName := map[string]*workload.Trace{}
	r := &mixRunner{cfg: core.DefaultConfig()}
	for _, sub := range sched.Submissions {
		tr, ok := byName[sub.Workload]
		if !ok {
			var err error
			if tr, err = record(sub.Workload, o.seeded(o.size.scale)); err != nil {
				return nil, err
			}
			byName[sub.Workload] = tr
		}
		r.traces = append(r.traces, tr)
	}
	r.cfg.AdmissionSlots = mixSlots
	r.cfg.ArrivalSchedule = sched
	r.cfg.FaultPlan = &fault.Plan{Seed: o.seed, ReadTransient: mixReadFault,
		ProgramFail: mixProgramFault, MACFail: mixMACFault}
	return r, nil
}

// mixSchedule draws the tenant mix: the standard workloads in turn, in a
// seeded order, each tenant in a uniformly chosen priority band, with
// exponentially distributed gaps between arrivals. Taking every workload
// equally often keeps the replay work the same from seed to seed.
func mixSchedule(seed uint64, tenants int) *trace.Schedule {
	rng := rand.New(rand.NewPCG(seed, 1))
	names := workload.Names()
	picks := make([]string, tenants)
	for i := range picks {
		picks[i] = names[i%len(names)]
	}
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	entries := make([]trace.Entry, tenants)
	var at sim.Time
	for i := range entries {
		entries[i] = trace.Entry{
			Arrival:  at,
			Tenant:   fmt.Sprintf("tenant-%02d", i),
			Workload: picks[i],
			Class:    trace.Class(rng.IntN(3)),
		}
		at += sim.Time(rng.ExpFloat64() * float64(mixGap))
	}
	return trace.BuildSchedule(entries)
}

func (r *mixRunner) warm() (*phase, error) {
	var err error
	r.first, r.stats, err = core.RunMultiStats(r.traces, core.ModeIceClave, r.cfg)
	if err != nil {
		return nil, err
	}
	return &phase{}, nil
}

func (r *mixRunner) measure(window time.Duration, rec *recorder) (*phase, error) {
	p := &phase{}
	var err error
	p.rounds, err = runRounds(window, func(i int, rd *round) error {
		id := rec.begin("replay", int64(i), -1)
		start := time.Now()
		res, _, err := core.RunMultiStats(r.traces, core.ModeIceClave, r.cfg)
		rd.lat = []float64{ms(time.Since(start))}
		rec.end(id)
		if err != nil {
			return err
		}
		// Under the fault plan a tenant may give up; that is a failed
		// operation, not a wrong output.
		for _, x := range res {
			p.attempted++
			if x.Failed {
				p.failed++
			}
		}
		if !reflect.DeepEqual(res, r.first) {
			p.fail("tenant-mix: replay results differ from the first replay's")
		}
		rd.work = steps(r.traces...)
		return nil
	})
	return p, err
}

func (r *mixRunner) layers(m map[string]float64) error {
	resultLayers(r.first, m)
	for _, x := range r.first {
		m["fault.retries"] += float64(x.Retries)
		m["fault.breaker_trips"] += float64(x.BreakerTrips)
	}
	ftlLayers(r.stats.FTL, m)
	return nil
}

// resultLayers adds the simulated-time breakdown, mapping-cache, page-
// cache and MEE traffic metrics of a set of replay results.
func resultLayers(results []core.Result, m map[string]float64) {
	if len(results) == 0 {
		return
	}
	var total, load, compute, security, teeT, queue sim.Duration
	var cmtMiss, pageHit float64
	var traffic mee.TrafficStats
	for _, r := range results {
		total += r.Total
		load += r.LoadTime
		compute += r.ComputeTime
		security += r.SecurityTime
		teeT += r.TEETime
		queue += r.QueueDelay
		cmtMiss += r.CMTMissRate
		pageHit += r.PageCacheHitRate
		traffic.DataReads += r.MEE.DataReads
		traffic.DataWrites += r.MEE.DataWrites
		traffic.EncExtraReads += r.MEE.EncExtraReads
		traffic.EncExtraWrites += r.MEE.EncExtraWrites
		traffic.VerExtraReads += r.MEE.VerExtraReads
		traffic.VerExtraWrites += r.MEE.VerExtraWrites
	}
	share := func(d sim.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	m["sim.load_share"] = share(load)
	m["sim.compute_share"] = share(compute)
	m["sim.security_share"] = share(security)
	m["sim.tee_share"] = share(teeT)
	m["sim.queue_share"] = share(queue)
	n := float64(len(results))
	m["cmt.miss_rate"] = 100 * cmtMiss / n
	m["dram.page_hit_rate"] = 100 * pageHit / n
	m["mee.enc_overhead"] = 100 * traffic.EncryptionOverhead()
	m["mee.ver_overhead"] = 100 * traffic.VerificationOverhead()
}

// ftlLayers adds the FTL's write amplification, GC and recovery counts.
func ftlLayers(st ftl.Stats, m map[string]float64) {
	m["ftl.write_amp"] = st.WriteAmplification()
	m["ftl.gc_erases"] = float64(st.Erases)
	m["ftl.read_retries"] = float64(st.ReadRetries)
	m["ftl.bad_blocks"] = float64(st.BadBlocks)
}

// addFTL sums the FTL counters ftlLayers reads.
func addFTL(a, b ftl.Stats) ftl.Stats {
	a.HostWrites += b.HostWrites
	a.GCWrites += b.GCWrites
	a.Erases += b.Erases
	a.ReadRetries += b.ReadRetries
	a.BadBlocks += b.BadBlocks
	return a
}
