package tee

import (
	"errors"
	"sync"
	"testing"

	"iceclave/internal/fault"
	"iceclave/internal/mee"
)

func TestMACFaultSurfacesIntegrityError(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 4, 0x20)
	env, err := rt.CreateTEE(Config{Binary: make([]byte, 64<<10), LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	// Every MAC verification fails: the read must surface both the tee
	// and mee integrity sentinels, and the page must stay re-verifiable
	// (the ordinal advances, so with a 100% rate it keeps failing).
	rt.SetFaultPlan(&fault.Plan{MACFail: 1})
	if _, err := rt.ReadPage(env, 1); !errors.Is(err, ErrIntegrity) || !errors.Is(err, mee.ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity wrapping mee.ErrIntegrity", err)
	}
	// Detach: the same read now succeeds — MAC faults are injected, not
	// stateful corruption.
	rt.SetFaultPlan(nil)
	page, err := rt.ReadPage(env, 1)
	if err != nil {
		t.Fatalf("read after detach: %v", err)
	}
	if page[0] != 0x21 {
		t.Fatalf("page content = %#x", page[0])
	}
}

func TestMACFaultDeterministicStream(t *testing.T) {
	run := func() []bool {
		rt, f := testRuntime(t)
		lpas := writePages(t, f, 4, 0x30)
		env, err := rt.CreateTEE(Config{Binary: make([]byte, 64<<10), LPAs: lpas})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetFaultPlan(&fault.Plan{Seed: 9, MACFail: 0.3})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := rt.ReadPage(env, lpas[i%4])
			outcomes = append(outcomes, err != nil)
			if err != nil && !errors.Is(err, ErrIntegrity) {
				t.Fatalf("read %d: unexpected error %v", i, err)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	sawFault := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: outcome differs across identical runs", i)
		}
		sawFault = sawFault || a[i]
	}
	if !sawFault {
		t.Fatal("0.3 MAC rate produced no fault in 64 reads")
	}
}

// TestSetFaultPlanConcurrentWithReads attaches and detaches a MAC-fault
// plan while another goroutine reads. The plan and the per-TEE ordinals
// are read and bumped under the runtime lock SetFaultPlan takes, so a
// detach landing mid-read can neither race with the read (-race) nor
// leave it writing to a detached, nil ordinal map (a panic). Every read
// either returns the stored page or fails with ErrIntegrity, and only
// the reads that returned a page crossed the bus.
func TestSetFaultPlanConcurrentWithReads(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 4, 0x40)
	env, err := rt.CreateTEE(Config{Binary: make([]byte, 64<<10), LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		plan := &fault.Plan{MACFail: 0.5}
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.SetFaultPlan(plan)
			rt.SetFaultPlan(nil)
		}
	}()
	before := rt.Stats().BusPages
	var read int64
	for i := 0; i < 2000; i++ {
		page, err := rt.ReadPage(env, lpas[i%4])
		if err != nil {
			if !errors.Is(err, ErrIntegrity) {
				close(stop)
				wg.Wait()
				t.Fatalf("read %d: unexpected error %v", i, err)
			}
			continue
		}
		if want := byte(0x40 + i%4); page[0] != want {
			close(stop)
			wg.Wait()
			t.Fatalf("read %d: page[0] = %#x, want %#x", i, page[0], want)
		}
		read++
	}
	close(stop)
	wg.Wait()
	if got := rt.Stats().BusPages - before; got != read {
		t.Fatalf("%d pages crossed the bus for %d successful reads", got, read)
	}
}
