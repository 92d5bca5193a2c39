package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"iceclave"
	"iceclave/internal/host"
	"iceclave/internal/sched"
)

// The offload workloads' device and tenants: a small two-channel SSD,
// tenants that each own a few pages the host wrote, plus one intermediate
// page their program writes. The scheduler runs one worker per core of
// the 2-core box the sizes were chosen on, one offload per tenant at a
// time, and at most 12 live TEEs (under the 15 TEE IDs).
const (
	offloadTenants  = 32
	pagesPerTenant  = 4
	payloadBytes    = 16
	binaryBytes     = 32 << 10
	schedWorkers    = 2
	schedMaxFlight  = 12
	lateLimit       = time.Millisecond // generator lateness counted by gen.late_pct
	offloadChannels = 2
	offloadBlocks   = 8
)

// errMismatch is an offload whose reads or result differ from what the
// host stored.
var errMismatch = errors.New("offload output differs from what HostWrite stored")

type offloadTenant struct {
	name   string
	lpas   []uint32 // the owned pages, then the intermediate page
	pages  [][]byte // expected plaintext of each owned page
	digest []byte   // the result every offload of the tenant returns
}

// offloadRig is a set-up offload workload: the device, its tenants, and
// the seeded arrival stream (due offsets for offload-steady, all zero
// for offload-burst).
type offloadRig struct {
	ssd     *iceclave.SSD
	tenants []offloadTenant
	binary  []byte
	due     []time.Duration
	who     []int
	band    []sched.Priority
	steady  bool
	size    sizes
	nextReq int64 // request id of the last submitted offload

	// Offloads submitted, and submitted over lateLimit after their due
	// time, since set-up.
	submitted, late int
}

func setupSteady(o options) (runner, error) {
	n := int(o.size.rate*o.window.Seconds()) + 1
	rng := rand.New(rand.NewPCG(o.seed, 2))
	due := make([]time.Duration, n)
	var at float64
	for i := range due {
		due[i] = time.Duration(at)
		at += rng.ExpFloat64() * float64(time.Second) / o.size.rate
	}
	return newOffloadRig(o, due, rng, true)
}

func setupBurst(o options) (runner, error) {
	rng := rand.New(rand.NewPCG(o.seed, 3))
	return newOffloadRig(o, make([]time.Duration, o.size.burst), rng, false)
}

// newOffloadRig opens the device, stores every tenant's pages through the
// host path, and draws each arrival's tenant and priority band.
func newOffloadRig(o options, due []time.Duration, rng *rand.Rand, steady bool) (*offloadRig, error) {
	ssd, err := iceclave.Open(iceclave.Options{Channels: offloadChannels, BlocksPerPlane: offloadBlocks})
	if err != nil {
		return nil, err
	}
	g := &offloadRig{ssd: ssd, binary: make([]byte, binaryBytes), due: due, steady: steady, size: o.size}
	for t := 0; t < offloadTenants; t++ {
		ten := offloadTenant{name: fmt.Sprintf("tenant-%02d", t)}
		var pages [][]byte
		for k := 0; k < pagesPerTenant; k++ {
			lpa := uint32(t*pagesPerTenant + k)
			payload := make([]byte, payloadBytes)
			for i := range payload {
				payload[i] = byte(rng.Uint32())
			}
			if err := ssd.HostWrite(lpa, payload); err != nil {
				return nil, err
			}
			page := make([]byte, ssd.PageSize())
			copy(page, payload)
			ten.lpas = append(ten.lpas, lpa)
			ten.pages = append(ten.pages, page)
			pages = append(pages, payload)
		}
		ten.lpas = append(ten.lpas, uint32(offloadTenants*pagesPerTenant+t))
		ten.digest = digest(pages)
		g.tenants = append(g.tenants, ten)
	}
	g.who = make([]int, len(due))
	g.band = make([]sched.Priority, len(due))
	for i := range due {
		g.who[i] = rng.IntN(offloadTenants)
		g.band[i] = sched.Priority(rng.IntN(3))
	}
	return g, nil
}

// digest is the tenant program's result: FNV-1a over the payload prefix
// of each page it read.
func digest(pages [][]byte) []byte {
	h := uint64(14695981039346656037)
	for _, p := range pages {
		for _, c := range p[:payloadBytes] {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	return binary.BigEndian.AppendUint64(nil, h)
}

// offload runs tenant t's program in a TEE: OffloadCode, a checked read
// of each owned page, one intermediate write, Finish. A TEE whose program
// fails is thrown out, as iceclave.SSD.Execute does.
func (g *offloadRig) offload(t int, req int64, root int32, rec *recorder) error {
	ten := &g.tenants[t]
	id := rec.begin("tee.create", req, root)
	task, err := g.ssd.OffloadCode(host.Offload{TaskID: uint32(req), Binary: g.binary, LPAs: ten.lpas})
	rec.end(id)
	if err != nil {
		return err
	}
	st := task.Store()
	pages := make([][]byte, pagesPerTenant)
	for k := range pages {
		id = rec.begin("tee.read", req, root)
		page, err := st.ReadPage(ten.lpas[k])
		rec.end(id)
		if err == nil && !bytes.Equal(page, ten.pages[k]) {
			err = fmt.Errorf("%w: LPA %d", errMismatch, ten.lpas[k])
		}
		if err != nil {
			g.ssd.Runtime().ThrowOutTEE(task.TEE(), err.Error())
			return err
		}
		pages[k] = page
	}
	out := digest(pages)
	id = rec.begin("tee.write", req, root)
	err = st.WritePage(ten.lpas[pagesPerTenant], out)
	rec.end(id)
	if err != nil {
		g.ssd.Runtime().ThrowOutTEE(task.TEE(), err.Error())
		return err
	}
	id = rec.begin("tee.finish", req, root)
	err = task.Finish(out)
	rec.end(id)
	if err != nil {
		return err
	}
	if !bytes.Equal(task.TEE().Result(), ten.digest) {
		return fmt.Errorf("%w: tenant %d result", errMismatch, t)
	}
	return nil
}

// offloads records what each offload of one run did.
type offloads struct {
	start   time.Time     // the first due time
	elapsed time.Duration // from start until drained
	done    []time.Duration
	lat     []float64 // ms, from the offload's due time
	errs    []error
}

// rounds splits the successful offloads by completion time into rounds of
// the given length; the last is shorter.
func (o *offloads) rounds(length time.Duration) []round {
	out := make([]round, max(int((o.elapsed+length-1)/length), 1))
	for k := range out {
		out[k].elapsed = min(length, o.elapsed-time.Duration(k)*length)
	}
	for i, d := range o.done {
		if o.errs[i] == nil {
			k := min(int(d/length), len(out)-1)
			out[k].work++
			out[k].lat = append(out[k].lat, o.lat[i])
		}
	}
	return out
}

// submit queues arrival i on s, due at the given instant.
func (g *offloadRig) submit(s *sched.Scheduler, i int, due time.Time, rec *recorder, o *offloads) error {
	t := g.who[i]
	g.nextReq++
	req := g.nextReq
	_, err := s.Submit(g.tenants[t].name, g.band[i], func(context.Context) error {
		root := rec.beginAt("offload", req, -1, due)
		rec.endAt(rec.beginAt("sched.wait", req, root, due), time.Now())
		err := g.offload(t, req, root, rec)
		done := time.Now()
		rec.endAt(root, done)
		o.done[i], o.lat[i], o.errs[i] = done.Sub(o.start), ms(done.Sub(due)), err
		return err
	})
	return err
}

// run drives the first n arrivals through a fresh scheduler — at their
// due offsets from now (offload-steady) or all at once (offload-burst) —
// and drains it. It adds the run's counts and failed checks to p.
func (g *offloadRig) run(n int, rec *recorder, p *phase) (*offloads, error) {
	s := sched.New(sched.Config{Workers: schedWorkers, TenantMaxInFlight: 1,
		MaxInFlight: schedMaxFlight, QueueDepth: max(n, 1)})
	o := &offloads{start: time.Now(), done: make([]time.Duration, n), lat: make([]float64, n), errs: make([]error, n)}
	for i := 0; i < n; i++ {
		due := o.start.Add(g.due[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		g.submitted++
		if time.Since(due) > lateLimit {
			g.late++
		}
		if err := g.submit(s, i, due, rec, o); err != nil {
			_ = s.Close(context.Background()) // the submit error is the one to report
			return nil, err
		}
	}
	if err := s.Close(context.Background()); err != nil {
		return nil, err
	}
	o.elapsed = time.Since(o.start)
	st := s.Stats()
	p.attempted += st.Submitted
	p.failed += st.Failed
	if st.Completed+st.Failed != st.Submitted {
		p.fail("sched.Stats: completed %d + failed %d != submitted %d", st.Completed, st.Failed, st.Submitted)
	}
	for _, err := range o.errs {
		if errors.Is(err, errMismatch) {
			p.fail("%v", err)
		}
	}
	return o, nil
}

func (g *offloadRig) warm() (*phase, error) {
	p := &phase{}
	n := g.size.burst
	if g.steady {
		n = g.arrivalsWithin(time.Second)
	}
	_, err := g.run(n, nil, p)
	return p, err
}

// arrivalsWithin counts the steady arrivals due before window.
func (g *offloadRig) arrivalsWithin(window time.Duration) int {
	return sort.Search(len(g.due), func(i int) bool { return g.due[i] >= window })
}

// measure runs offload-steady's open loop once, split into windowLen
// rounds by completion time, or offload-burst's bursts, one round each.
func (g *offloadRig) measure(window time.Duration, rec *recorder) (*phase, error) {
	p := &phase{}
	if !g.steady {
		var err error
		p.rounds, err = runRounds(window, func(_ int, r *round) error {
			o, err := g.run(g.size.burst, rec, p)
			if err == nil {
				*r = o.rounds(o.elapsed)[0]
			}
			return err
		})
		return p, err
	}
	o, err := g.run(g.arrivalsWithin(window), rec, p)
	if err != nil {
		return nil, err
	}
	p.rounds = o.rounds(windowLen)
	return p, nil
}

// layers reports the device's counters since it was opened.
func (g *offloadRig) layers(m map[string]float64) error {
	ftlLayers(g.ssd.FTL().Stats(), m)
	if st := g.ssd.Runtime().Stats(); st.CMTHits+st.CMTMisses > 0 {
		m["cmt.miss_rate"] = 100 * float64(st.CMTMisses) / float64(st.CMTHits+st.CMTMisses)
	}
	if g.steady && g.submitted > 0 {
		m["gen.late_pct"] = 100 * float64(g.late) / float64(g.submitted)
	}
	return nil
}
