// Package sched implements the concurrent multi-tenant offload scheduler
// for the IceClave SSD: the admission-and-dispatch layer a real
// computational-storage controller runs between the NVMe front end and the
// in-storage TEE runtime.
//
// The paper's threat model (§3) exists precisely because many mutually
// distrusting tenants offload programs to one device at the same time; the
// seed simulated one offload at a time. This package supplies the missing
// shape, mirroring the proxy/enclave separation of multi-tenant TEE
// deployments:
//
//   - A fixed worker pool executes offloaded jobs concurrently, bounded by
//     Config.Workers (the controller's core count).
//   - Per-tenant admission control caps each tenant's in-flight jobs
//     (Config.TenantMaxInFlight), so one noisy tenant cannot monopolize
//     the pool; a global cap (Config.MaxInFlight) matches hardware limits
//     such as the 15 live 4-bit TEE IDs of paper §4.3.
//   - Jobs queue FIFO within three priority bands; dispatch is
//     work-conserving: a job whose tenant is at its cap is skipped, not
//     head-of-line blocking the band.
//   - Dispatch is cache-affine: a tenant's next job prefers the worker
//     that last ran that tenant (its working set is warm in that core's
//     cache, mirroring controller core affinity). An idle preferred
//     worker is left to claim its tenant's job; a busy one is not waited
//     for — any free worker takes the job, keeping dispatch
//     work-conserving.
//   - Graceful drain: Drain stops admission and waits for the queues and
//     workers to empty; Close additionally stops the workers.
//   - Per-tenant metering: submissions, completions, failures,
//     rejections, queue wait, and run time, for fairness accounting.
//
// The scheduler is deliberately generic — a Job is just a func(ctx) error —
// so the same pool drives functional TEE offloads (iceclave.SSD), timing
// replays, and the parallel experiment suite.
//
// Concurrency contract: Scheduler and Handle are safe for concurrent use
// from any number of tenant goroutines; Stats snapshots are internally
// consistent. Jobs themselves run on pool workers and must be
// self-synchronizing if they share state.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Priority orders jobs across the scheduler's bands. Within a band,
// dispatch is FIFO.
type Priority int

// Priority bands, lowest to highest.
const (
	PriorityLow Priority = iota
	PriorityNormal
	PriorityHigh
	numPriorities
)

// String names the band.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Job is one schedulable unit of tenant work — typically an OffloadCode /
// execute / GetResult round trip. The context is cancelled when the
// scheduler is closed hard.
type Job func(ctx context.Context) error

// Config tunes the scheduler.
type Config struct {
	// Workers is the number of concurrent executors (default 4, the
	// Table 3 controller core count).
	Workers int
	// TenantMaxInFlight caps each tenant's concurrently running jobs
	// (default 1: one live TEE per tenant, the paper's base scenario).
	TenantMaxInFlight int
	// MaxInFlight caps jobs running concurrently across all tenants
	// (default 15, the number of live TEE IDs §4.3 can represent).
	MaxInFlight int
	// QueueDepth bounds the total queued (not yet running) jobs; Submit
	// rejects with ErrQueueFull beyond it. Default 1024.
	QueueDepth int
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.TenantMaxInFlight <= 0 {
		c.TenantMaxInFlight = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 15
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
}

// Scheduler errors.
var (
	// ErrClosed is returned by Submit after Drain or Close.
	ErrClosed = errors.New("sched: scheduler closed to new work")
	// ErrQueueFull is returned when admission would exceed QueueDepth.
	ErrQueueFull = errors.New("sched: queue full")
)

// TenantStats is the per-tenant metering record.
type TenantStats struct {
	Submitted int64
	Completed int64
	Failed    int64
	Rejected  int64
	// QueueWait is the cumulative time jobs spent queued before running.
	QueueWait time.Duration
	// RunTime is the cumulative execution time of finished jobs.
	RunTime time.Duration
	// MaxInFlight is the high-water mark of concurrently running jobs.
	MaxInFlight int
	// LastWorker is the pool worker (0..Workers-1) that most recently
	// started one of the tenant's jobs — the cache-affinity target; -1
	// until the tenant's first job runs.
	LastWorker int
}

// Stats aggregates scheduler-wide counters.
type Stats struct {
	Submitted int64
	Completed int64
	Failed    int64
	Rejected  int64
}

// Handle tracks one submitted job.
type Handle struct {
	done chan struct{}
	err  error // written before done closes
}

// Done returns a channel closed when the job finishes.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its error.
func (h *Handle) Wait() error {
	<-h.done
	return h.err
}

// Err returns the job error; valid after Done is closed.
func (h *Handle) Err() error {
	select {
	case <-h.done:
		return h.err
	default:
		return nil
	}
}

// job is the queued form.
type job struct {
	tenant   string
	fn       Job
	handle   *Handle
	enqueued time.Time
}

// tenantState is the per-tenant admission and metering record.
type tenantState struct {
	inflight int
	stats    TenantStats
}

// Scheduler is the admission-controlled worker pool. Create with New;
// the zero value is not usable.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [numPriorities][]*job
	queued   int
	running  int
	tenants  map[string]*tenantState
	idle     []bool // idle[w]: worker w is parked in cond.Wait
	stats    Stats
	draining bool
	stopped  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a scheduler and starts its workers.
func New(cfg Config) *Scheduler {
	cfg.applyDefaults()
	s := &Scheduler{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	s.idle = make([]bool, cfg.Workers)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// tenant returns (creating if needed) the tenant record. Caller holds s.mu.
func (s *Scheduler) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{}
		ts.stats.LastWorker = -1
		s.tenants[name] = ts
	}
	return ts
}

// Submit queues a job for tenant at the given priority. It returns a
// Handle to wait on, ErrClosed after Drain/Close, or ErrQueueFull when the
// queue bound is hit (counted against the tenant as a rejection).
func (s *Scheduler) Submit(tenant string, prio Priority, fn Job) (*Handle, error) {
	if prio < PriorityLow || prio >= numPriorities {
		return nil, fmt.Errorf("sched: invalid priority %d", int(prio))
	}
	if fn == nil {
		return nil, errors.New("sched: nil job")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return nil, ErrClosed
	}
	ts := s.tenant(tenant)
	if s.queued >= s.cfg.QueueDepth {
		ts.stats.Rejected++
		s.stats.Rejected++
		return nil, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, s.queued)
	}
	j := &job{
		tenant:   tenant,
		fn:       fn,
		handle:   &Handle{done: make(chan struct{})},
		enqueued: time.Now(),
	}
	s.queues[prio] = append(s.queues[prio], j)
	s.queued++
	ts.stats.Submitted++
	s.stats.Submitted++
	// Broadcast, not Signal: the cache-affine skip rule means the first
	// worker woken may decline the job in favour of its idle preferred
	// worker, which must itself wake to claim it.
	s.cond.Broadcast()
	return j.handle, nil
}

// next pops the highest-priority FIFO job runnable by worker w: the
// tenant must be below its in-flight cap (global cap honored), and a job
// whose tenant last ran on a *different, currently idle* worker is left
// for that worker to claim — its caches are warm there, and leaving it
// costs no throughput because the preferred worker is free and awake (the
// submit/retire broadcasts wake every parked worker). If the preferred
// worker is busy, any worker takes the job: affinity never outweighs work
// conservation. Caller holds s.mu. Returns nil when nothing is runnable
// by this worker right now.
func (s *Scheduler) next(w int) *job {
	if s.running >= s.cfg.MaxInFlight {
		return nil
	}
	for p := numPriorities - 1; p >= 0; p-- {
		q := s.queues[p]
		for i, j := range q {
			ts := s.tenant(j.tenant)
			if ts.inflight >= s.cfg.TenantMaxInFlight {
				continue // admission: tenant at cap; try later jobs
			}
			if pref := ts.stats.LastWorker; pref >= 0 && pref != w && s.idle[pref] {
				continue // cache affinity: the warm worker is free; let it claim
			}
			// Remove in place: shift the tail down and clear the vacated
			// slot, so a dequeue never reallocates a deep queue.
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			s.queues[p] = q[:len(q)-1]
			return j
		}
	}
	return nil
}

// worker executes jobs until the scheduler stops. id is the worker's
// stable index, the unit of cache affinity.
func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for {
			j = s.next(id)
			if j != nil || s.stopped {
				break
			}
			s.idle[id] = true
			s.cond.Wait()
			s.idle[id] = false
		}
		if j == nil { // stopped with nothing runnable
			s.mu.Unlock()
			return
		}
		ts := s.tenant(j.tenant)
		ts.stats.LastWorker = id
		s.queued--
		s.running++
		ts.inflight++
		if s.queued > 0 {
			// Claiming this job may have turned a previously-skipped job
			// runnable-by-anyone (its preferred worker is us, and we are
			// now busy): re-wake parked workers so none of them sits idle
			// next to a runnable job.
			s.cond.Broadcast()
		}
		if ts.inflight > ts.stats.MaxInFlight {
			ts.stats.MaxInFlight = ts.inflight
		}
		ts.stats.QueueWait += time.Since(j.enqueued)
		s.mu.Unlock()

		start := time.Now()
		err := s.run(j)

		// Retirement order matters for observers: metering first (so a
		// caller returning from Wait sees its job counted), then the
		// handle, then the running slot (so Drain cannot return while
		// any handle still reports an unfinished job).
		s.mu.Lock()
		ts.inflight--
		ts.stats.RunTime += time.Since(start)
		if err != nil {
			ts.stats.Failed++
			s.stats.Failed++
		} else {
			ts.stats.Completed++
			s.stats.Completed++
		}
		// The tenant dropping below its cap may unblock its queued jobs.
		s.cond.Broadcast()
		s.mu.Unlock()

		j.handle.err = err
		close(j.handle.done)

		s.mu.Lock()
		s.running--
		s.cond.Broadcast() // wake drain waiters and globally capped workers
		s.mu.Unlock()
	}
}

// run executes one job, converting a panic into an error so a faulty
// tenant program cannot take down the pool (the software analogue of
// ThrowOutTEE).
func (s *Scheduler) run(j *job) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sched: job panic: %v", rec)
		}
	}()
	return j.fn(s.ctx)
}

// Drain stops admission and blocks until every queued and running job has
// finished, or ctx expires (returning ctx.Err() with work still pending).
// Workers stay alive; a drained scheduler rejects new Submits.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	// Wake the cond waiter when ctx dies.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for (s.queued > 0 || s.running > 0) && ctx.Err() == nil {
		s.cond.Wait()
	}
	if s.queued > 0 || s.running > 0 {
		return fmt.Errorf("sched: drain: %w (%d queued, %d running)", ctx.Err(), s.queued, s.running)
	}
	return nil
}

// Close drains with the given context, then stops the workers. Jobs still
// pending when ctx expires are abandoned in the queue and their handles
// never complete; pass a background context for a full graceful shutdown.
func (s *Scheduler) Close(ctx context.Context) error {
	err := s.Drain(ctx)
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return err
}

// Stats returns the scheduler-wide counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TenantStats returns a copy of the metering record for tenant.
func (s *Scheduler) TenantStats(tenant string) TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts, ok := s.tenants[tenant]; ok {
		return ts.stats
	}
	return TenantStats{LastWorker: -1}
}

// Tenants returns the per-tenant metering records keyed by tenant name.
func (s *Scheduler) Tenants() map[string]TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantStats, len(s.tenants))
	for name, ts := range s.tenants {
		out[name] = ts.stats
	}
	return out
}
