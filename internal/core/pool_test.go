package core

import (
	"sync"
	"testing"

	"iceclave/internal/cpu"
	"iceclave/internal/mee"
	"iceclave/internal/workload"
)

// TestPooledRunIdenticalToFresh is the pool's differential oracle on the
// Table 6 / Figure 8 axis (the three MEE protection modes): a replay on a
// recycled, reset stack must produce a Result — timings, breakdowns, MEE
// traffic accounting, cache hit rates — equal to a fresh-allocation run.
// It also pins the post-setup seal point: prepopulation activity must not
// leak into either run's figures, or the two could agree with each other
// while both being polluted; the MEE/translation counters compared here
// start from the seal.
func TestPooledRunIdenticalToFresh(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "TPC-H Q1")
	for _, m := range []mee.Mode{mee.ModeHybrid, mee.ModeSplit64, mee.ModeNone} {
		cfg := DefaultConfig()
		cfg.MEEMode = m
		SetPooling(false)
		ResetPool()
		fresh, err := Run(tr, ModeIceClave, cfg)
		if err != nil {
			t.Fatal(err)
		}
		SetPooling(true)
		warm, err := Run(tr, ModeIceClave, cfg) // builds, then pools its stack
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := Run(tr, ModeIceClave, cfg) // runs on the recycled stack
		if err != nil {
			t.Fatal(err)
		}
		if st := PoolSnapshot(); st.Hits == 0 {
			t.Fatalf("mode %v: second pooled run did not hit the pool: %+v", m, st)
		}
		if warm != fresh {
			t.Fatalf("mode %v: pooling-enabled fresh build diverges:\n%+v\nvs\n%+v", m, warm, fresh)
		}
		if pooled != fresh {
			t.Fatalf("mode %v: recycled-stack run diverges:\n%+v\nvs\n%+v", m, pooled, fresh)
		}
	}
}

// TestRecycledBoardServesItsConfig pins the two Config values a board
// depends on: the flash timing it is keyed by, and the in-storage core it
// takes at checkout. After a default-config run pools its board, a run
// of each changed config must replay exactly as a fresh stack of that
// config — recycling the board when only the core differs — and
// differently from the default.
func TestRecycledBoardServesItsConfig(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "TPC-H Q1")
	for _, tc := range []struct {
		name    string
		mode    Mode
		set     func(*Config)
		recycle bool
	}{
		{"storage core", ModeISC, func(c *Config) { c.StorageCore = cpu.CortexA53 }, true},
		{"flash timing", ModeHost, func(c *Config) { c.FlashTiming.ReadLatency *= 2 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			SetPooling(false)
			ResetPool()
			fresh, err := Run(tr, tc.mode, cfg)
			if err != nil {
				t.Fatal(err)
			}
			SetPooling(true)
			def, err := Run(tr, tc.mode, DefaultConfig()) // pools a default board
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(tr, tc.mode, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fresh == def {
				t.Fatalf("a fresh stack replays the changed config as the default: %+v", fresh)
			}
			if st := PoolSnapshot(); (st.Hits == 1) != tc.recycle {
				t.Fatalf("pool %+v after the changed run, want it to recycle the board: %v", st, tc.recycle)
			}
			if got != fresh {
				t.Fatalf("pooled run diverges from a fresh stack:\n%+v\nvs\n%+v", got, fresh)
			}
		})
	}
}

// TestPoolIdlePageCachesBounded pins the pool's idle memory: replays
// whose configurations differ only in MEEMode differ in no hardware, so
// the second and third recycle the first's board and page cache, and the
// pool ends holding at most two idle page caches of the default capacity
// (8 MB of way arrays each), not one per configuration.
func TestPoolIdlePageCachesBounded(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "Filter")
	SetPooling(true)
	ResetPool()
	for _, m := range []mee.Mode{mee.ModeHybrid, mee.ModeSplit64, mee.ModeNone} {
		cfg := DefaultConfig()
		cfg.MEEMode = m
		if _, err := Run(tr, ModeIceClave, cfg); err != nil {
			t.Fatal(err)
		}
	}
	capacity := pageCacheBytes(DefaultConfig(), 4096)
	pool.mu.Lock()
	idle := len(pool.pages.byKey[capacity])
	pool.mu.Unlock()
	if idle == 0 || idle > 2 {
		t.Fatalf("pool holds %d idle %d MB page caches after three MEE modes, want 1 or 2", idle, capacity>>20)
	}
	if st := PoolSnapshot(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("three MEE modes on one device: %+v, want 2 recycled boards and 1 build", st)
	}
}

// TestPooledAcquireAllocsO1 pins the zero-alloc promise: once the pool is
// warm, a full replay setup (checkout, reset, prepopulate, seal) allocates
// a handful of objects — and the count must not scale with the device
// geometry, only the trace drives the work.
func TestPooledAcquireAllocsO1(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "Filter")
	traces := []*workload.Trace{tr}
	SetPooling(true)

	setupAllocs := func(cfg Config) float64 {
		ResetPool()
		res, _, err := newResources(cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		pool.release(res)
		return testing.AllocsPerRun(10, func() {
			r, _, err := newResources(cfg, traces)
			if err != nil {
				t.Fatal(err)
			}
			pool.release(r)
		})
	}

	small := setupAllocs(DefaultConfig())
	bigCfg := DefaultConfig()
	bigCfg.MinFlashPages = 256 << 10 // ~4x the auto-sized geometry
	big := setupAllocs(bigCfg)
	if small > 8 || big > 8 {
		t.Fatalf("warm-pool setup allocates %.0f (default) / %.0f (large geometry) objects, want O(1)", small, big)
	}
	if big > small {
		t.Fatalf("setup allocations scale with geometry: %.0f -> %.0f", small, big)
	}
}

// TestPoolConcurrentCheckout drives the pool the way parallel suite
// workers do — many goroutines checking stacks in and out with resets in
// between — and requires every run to agree with a solo baseline. Run
// under -race this pins the exclusive-ownership handoff.
func TestPoolConcurrentCheckout(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "Filter")
	cfg := DefaultConfig()
	SetPooling(true)
	ResetPool()
	want, err := Run(tr, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 6, 2
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				r, err := Run(tr, ModeIceClave, cfg)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = r
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i] != want {
			t.Fatalf("worker %d diverges from solo baseline:\n%+v\nvs\n%+v", i, results[i], want)
		}
	}
}
