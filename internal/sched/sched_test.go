package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitAll waits on every handle, failing the test on job error.
func waitAll(t *testing.T, hs []*Handle) {
	t.Helper()
	for i, h := range hs {
		if err := h.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

func TestSubmitRunsJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close(context.Background())
	var n atomic.Int64
	var hs []*Handle
	for i := 0; i < 16; i++ {
		h, err := s.Submit("t0", PriorityNormal, func(context.Context) error {
			n.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	waitAll(t, hs)
	if n.Load() != 16 {
		t.Fatalf("ran %d jobs, want 16", n.Load())
	}
	st := s.Stats()
	if st.Completed != 16 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmission is the table-driven admission-control check: with various
// per-tenant and global caps, the observed concurrency must never exceed
// either bound, and every job must still run (work conservation).
func TestAdmission(t *testing.T) {
	cases := []struct {
		name          string
		cfg           Config
		tenants       int
		jobsPerTenant int
	}{
		{"one-per-tenant", Config{Workers: 8, TenantMaxInFlight: 1, MaxInFlight: 15}, 4, 6},
		{"two-per-tenant", Config{Workers: 8, TenantMaxInFlight: 2, MaxInFlight: 15}, 4, 6},
		{"global-cap-binds", Config{Workers: 8, TenantMaxInFlight: 8, MaxInFlight: 3}, 4, 4},
		{"single-worker", Config{Workers: 1, TenantMaxInFlight: 4, MaxInFlight: 15}, 3, 3},
		{"more-tenants-than-workers", Config{Workers: 2, TenantMaxInFlight: 1, MaxInFlight: 15}, 9, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			defer s.Close(context.Background())
			var (
				mu         sync.Mutex
				inflight   = map[string]int{}
				total      int
				maxTotal   int
				maxPerTen  int
				violations int
			)
			var hs []*Handle
			for ti := 0; ti < tc.tenants; ti++ {
				tenant := fmt.Sprintf("tenant-%d", ti)
				for j := 0; j < tc.jobsPerTenant; j++ {
					h, err := s.Submit(tenant, PriorityNormal, func(context.Context) error {
						mu.Lock()
						inflight[tenant]++
						total++
						if total > maxTotal {
							maxTotal = total
						}
						if inflight[tenant] > maxPerTen {
							maxPerTen = inflight[tenant]
						}
						if inflight[tenant] > tc.cfg.TenantMaxInFlight || total > tc.cfg.MaxInFlight {
							violations++
						}
						mu.Unlock()
						time.Sleep(time.Millisecond)
						mu.Lock()
						inflight[tenant]--
						total--
						mu.Unlock()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					hs = append(hs, h)
				}
			}
			waitAll(t, hs)
			if violations > 0 {
				t.Fatalf("%d admission violations (max total %d, max per-tenant %d)",
					violations, maxTotal, maxPerTen)
			}
			if got := s.Stats().Completed; got != int64(tc.tenants*tc.jobsPerTenant) {
				t.Fatalf("completed %d, want %d", got, tc.tenants*tc.jobsPerTenant)
			}
			for ti := 0; ti < tc.tenants; ti++ {
				ts := s.TenantStats(fmt.Sprintf("tenant-%d", ti))
				if ts.Completed != int64(tc.jobsPerTenant) {
					t.Fatalf("tenant %d completed %d, want %d", ti, ts.Completed, tc.jobsPerTenant)
				}
				if ts.MaxInFlight > tc.cfg.TenantMaxInFlight {
					t.Fatalf("tenant %d high-water %d above cap %d", ti, ts.MaxInFlight, tc.cfg.TenantMaxInFlight)
				}
			}
		})
	}
}

// TestPriorityOrder holds the single worker busy, queues low- and
// high-band jobs, and checks the high band drains first.
func TestPriorityOrder(t *testing.T) {
	s := New(Config{Workers: 1, TenantMaxInFlight: 8, MaxInFlight: 8})
	defer s.Close(context.Background())

	gate := make(chan struct{})
	block, err := s.Submit("t0", PriorityNormal, func(context.Context) error {
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	record := func(tag string) Job {
		return func(context.Context) error {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
			return nil
		}
	}
	var hs []*Handle
	for i := 0; i < 3; i++ {
		h, err := s.Submit("t0", PriorityLow, record(fmt.Sprintf("low%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i := 0; i < 3; i++ {
		h, err := s.Submit("t0", PriorityHigh, record(fmt.Sprintf("high%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	close(gate)
	if err := block.Wait(); err != nil {
		t.Fatal(err)
	}
	waitAll(t, hs)
	want := []string{"high0", "high1", "high2", "low0", "low1", "low2"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWorkConserving: a tenant at its cap must not head-of-line block
// another tenant's queued job in the same band.
func TestWorkConserving(t *testing.T) {
	s := New(Config{Workers: 2, TenantMaxInFlight: 1, MaxInFlight: 8})
	defer s.Close(context.Background())

	gate := make(chan struct{})
	running := make(chan struct{}, 1)
	h0, err := s.Submit("hog", PriorityNormal, func(context.Context) error {
		running <- struct{}{}
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running // hog occupies its 1-slot cap
	// Second hog job is inadmissible; other tenant's job must run anyway.
	h1, err := s.Submit("hog", PriorityNormal, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	h2, err := s.Submit("other", PriorityNormal, func(context.Context) error {
		close(done)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("other tenant blocked behind capped tenant")
	}
	close(gate)
	waitAll(t, []*Handle{h0, h1, h2})
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, TenantMaxInFlight: 1, MaxInFlight: 1, QueueDepth: 2})
	defer s.Close(context.Background())
	gate := make(chan struct{})
	running := make(chan struct{})
	h, err := s.Submit("t0", PriorityNormal, func(context.Context) error {
		close(running)
		<-gate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	// Two queued jobs fit; the third must reject.
	var hs []*Handle
	for i := 0; i < 2; i++ {
		q, err := s.Submit("t0", PriorityNormal, func(context.Context) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, q)
	}
	if _, err := s.Submit("t0", PriorityNormal, func(context.Context) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit returned %v", err)
	}
	if s.TenantStats("t0").Rejected != 1 {
		t.Fatalf("rejected = %d", s.TenantStats("t0").Rejected)
	}
	close(gate)
	waitAll(t, append([]*Handle{h}, hs...))
}

// TestDrain is the graceful-drain table: drain must complete all admitted
// work, then reject new submissions; a cancelled drain context reports
// pending work.
func TestDrain(t *testing.T) {
	t.Run("completes-admitted-work", func(t *testing.T) {
		s := New(Config{Workers: 4, TenantMaxInFlight: 2, MaxInFlight: 8})
		var n atomic.Int64
		for i := 0; i < 20; i++ {
			if _, err := s.Submit(fmt.Sprintf("t%d", i%5), PriorityNormal, func(context.Context) error {
				time.Sleep(200 * time.Microsecond)
				n.Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n.Load() != 20 {
			t.Fatalf("drained with %d/20 jobs done", n.Load())
		}
		if _, err := s.Submit("t0", PriorityNormal, func(context.Context) error { return nil }); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-drain submit returned %v", err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("timeout-reports-pending", func(t *testing.T) {
		s := New(Config{Workers: 1, TenantMaxInFlight: 1, MaxInFlight: 1})
		gate := make(chan struct{})
		running := make(chan struct{})
		h, err := s.Submit("t0", PriorityNormal, func(context.Context) error {
			close(running)
			<-gate
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		<-running
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain returned %v", err)
		}
		close(gate)
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

func TestJobErrorAndPanicMetering(t *testing.T) {
	s := New(Config{Workers: 2, TenantMaxInFlight: 2, MaxInFlight: 8})
	defer s.Close(context.Background())
	boom := errors.New("boom")
	h1, _ := s.Submit("t0", PriorityNormal, func(context.Context) error { return boom })
	h2, _ := s.Submit("t0", PriorityNormal, func(context.Context) error { panic("tenant bug") })
	if err := h1.Wait(); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := h2.Wait(); err == nil {
		t.Fatal("panic not converted to error")
	}
	ts := s.TenantStats("t0")
	if ts.Failed != 2 || ts.Completed != 0 {
		t.Fatalf("stats = %+v", ts)
	}
}

// TestStress hammers the scheduler from many goroutines under -race.
func TestStress(t *testing.T) {
	s := New(Config{Workers: 8, TenantMaxInFlight: 2, MaxInFlight: 12, QueueDepth: 1 << 14})
	var n atomic.Int64
	var wg sync.WaitGroup
	const tenants, jobs = 32, 25
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", ti)
			for j := 0; j < jobs; j++ {
				h, err := s.Submit(tenant, Priority(j%int(numPriorities)), func(context.Context) error {
					n.Add(1)
					return nil
				})
				if err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
				if j%5 == 0 { // mix waiting and fire-and-forget submitters
					if err := h.Wait(); err != nil {
						t.Errorf("%s: %v", tenant, err)
					}
				}
			}
		}(ti)
	}
	wg.Wait()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n.Load() != tenants*jobs {
		t.Fatalf("ran %d, want %d", n.Load(), tenants*jobs)
	}
}
