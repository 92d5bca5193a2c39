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
//   - Graceful drain: Drain stops admission and sleeps on a condition of
//     its own until the queues and workers are empty. Only the worker
//     whose retirement leaves the pool idle wakes it, so a deep queue
//     drains without waking it per job; Close additionally stops the
//     workers.
//   - Per-tenant metering: submissions, completions, failures,
//     rejections, queue wait, and run time, for fairness accounting.
//
// The pool and the virtual-time Gate (gate.go) drive one admission queue
// (queue.go), so the wall-clock and simulated-time gates grant in the
// same order. A Job is just a func(ctx) error; the pool drives functional
// TEE offloads (iceclave.SSD).
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

// Scheduler is the admission-controlled worker pool. Create with New;
// the zero value is not usable.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond // workers: a job queued, a slot freed, or stopped
	idle     *sync.Cond // Drain: the pool emptied, or its context ended
	q        queue[*job]
	tenants  map[string]*TenantStats
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
		q:       newQueue[*job](cfg.MaxInFlight, cfg.TenantMaxInFlight),
		tenants: make(map[string]*TenantStats),
	}
	s.cond = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// tenant returns (creating if needed) the tenant record. Caller holds s.mu.
func (s *Scheduler) tenant(name string) *TenantStats {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &TenantStats{}
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
	if s.q.waiting >= s.cfg.QueueDepth {
		ts.Rejected++
		s.stats.Rejected++
		return nil, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, s.q.waiting)
	}
	j := &job{
		tenant:   tenant,
		fn:       fn,
		handle:   &Handle{done: make(chan struct{})},
		enqueued: time.Now(),
	}
	s.q.push(tenant, prio, j)
	ts.Submitted++
	s.stats.Submitted++
	s.cond.Signal()
	return j.handle, nil
}

// worker executes jobs until the scheduler stops.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		j, ok := s.q.pop()
		for !ok && !s.stopped {
			s.cond.Wait()
			j, ok = s.q.pop()
		}
		if !ok { // stopped with nothing runnable
			s.mu.Unlock()
			return
		}
		ts := s.tenants[j.tenant]
		ts.MaxInFlight = max(ts.MaxInFlight, s.q.byKey[j.tenant])
		ts.QueueWait += time.Since(j.enqueued)
		s.mu.Unlock()

		start := time.Now()
		err := s.run(j)

		// Retirement order matters for observers: metering first (so a
		// caller returning from Wait sees its job counted), then the
		// handle, then the slot (so Drain cannot return while any handle
		// still reports an unfinished job).
		s.mu.Lock()
		ts.RunTime += time.Since(start)
		if err != nil {
			ts.Failed++
			s.stats.Failed++
		} else {
			ts.Completed++
			s.stats.Completed++
		}
		s.mu.Unlock()

		j.handle.err = err
		close(j.handle.done)

		s.mu.Lock()
		s.q.done(j.tenant)
		s.cond.Broadcast() // wake workers whose next job was capped
		if s.q.waiting == 0 && s.q.running == 0 {
			s.idle.Broadcast()
		}
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

	// Wake the idle waiter when ctx dies.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for (s.q.waiting > 0 || s.q.running > 0) && ctx.Err() == nil {
		s.idle.Wait()
	}
	if s.q.waiting > 0 || s.q.running > 0 {
		return fmt.Errorf("sched: drain: %w (%d queued, %d running)", ctx.Err(), s.q.waiting, s.q.running)
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
		return *ts
	}
	return TenantStats{}
}

// Tenants returns the per-tenant metering records keyed by tenant name.
func (s *Scheduler) Tenants() map[string]TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]TenantStats, len(s.tenants))
	for name, ts := range s.tenants {
		out[name] = *ts
	}
	return out
}
