package iceclave

import (
	"errors"
	"testing"

	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/host"
	"iceclave/internal/mee"
	"iceclave/internal/tee"
)

// Error-taxonomy contract: every exported failure sentinel in the stack
// must be reachable through the public SSD API with errors.Is — the
// wrapping chain (%w at every layer) is part of the API. Each subtest
// drives one sentinel out of HostRead/HostWrite/Store().ReadPage.

func openWithPlan(t *testing.T, plan *fault.Plan) *SSD {
	t.Helper()
	ssd, err := Open(Options{Channels: 2, BlocksPerPlane: 8, FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return ssd
}

func TestSentinelTransientReadReachable(t *testing.T) {
	ssd := openWithPlan(t, &fault.Plan{Seed: 1, ReadTransient: 1})
	if err := ssd.HostWrite(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err := ssd.HostRead(0)
	if !errors.Is(err, flash.ErrTransientRead) {
		t.Fatalf("HostRead = %v, want errors.Is ErrTransientRead", err)
	}
}

func TestSentinelProgramFailReachable(t *testing.T) {
	ssd := openWithPlan(t, &fault.Plan{Seed: 1, ProgramFail: 1})
	err := ssd.HostWrite(0, []byte("x"))
	if !errors.Is(err, flash.ErrProgramFail) {
		t.Fatalf("HostWrite = %v, want errors.Is ErrProgramFail", err)
	}
}

// allDiesDead scripts every die of every channel dead from time zero.
func allDiesDead(t *testing.T, ssd *SSD) *fault.Plan {
	t.Helper()
	geo := ssd.FTL().Device().Geometry()
	var deaths []fault.DieDeath
	for ch := 0; ch < geo.Channels; ch++ {
		for die := 0; die < geo.DiesPerChannel(); die++ {
			deaths = append(deaths, fault.DieDeath{Channel: ch, Die: die})
		}
	}
	return &fault.Plan{DieDeaths: deaths}
}

func TestSentinelDieDeadAndDeviceFullReachable(t *testing.T) {
	probe, err := Open(Options{Channels: 2, BlocksPerPlane: 8})
	if err != nil {
		t.Fatal(err)
	}
	ssd := openWithPlan(t, allDiesDead(t, probe))
	// Every program lands on a dead die; the FTL kills dies and retries
	// until its retry budget surfaces ErrDieDead.
	werr := ssd.HostWrite(0, []byte("x"))
	if !errors.Is(werr, flash.ErrDieDead) {
		t.Fatalf("HostWrite = %v, want errors.Is ErrDieDead", werr)
	}
	// Keep writing: once the channel has no live die left, the allocator
	// has no free page and the failure becomes ErrDeviceFull.
	for i := 0; i < 100; i++ {
		werr = ssd.HostWrite(0, []byte("x"))
		if errors.Is(werr, ftl.ErrDeviceFull) {
			return
		}
	}
	t.Fatalf("never reached ErrDeviceFull; last = %v", werr)
}

func TestSentinelIntegrityReachable(t *testing.T) {
	ssd := openWithPlan(t, &fault.Plan{Seed: 1, MACFail: 1})
	if err := ssd.HostWrite(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	task, err := ssd.OffloadCode(host.Offload{Binary: make([]byte, 64<<10), LPAs: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := task.Store().ReadPage(0)
	if !errors.Is(rerr, tee.ErrIntegrity) {
		t.Fatalf("ReadPage = %v, want errors.Is tee.ErrIntegrity", rerr)
	}
	if !errors.Is(rerr, mee.ErrIntegrity) {
		t.Fatalf("ReadPage = %v, want errors.Is mee.ErrIntegrity too", rerr)
	}
}

func TestSentinelUnmappedAndAccessDeniedReachable(t *testing.T) {
	ssd, err := Open(Options{Channels: 2, BlocksPerPlane: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := ssd.HostRead(100); !errors.Is(rerr, ftl.ErrUnmapped) {
		t.Fatalf("HostRead of unwritten page = %v, want errors.Is ErrUnmapped", rerr)
	}
	if err := ssd.HostWrite(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := ssd.HostWrite(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	task, err := ssd.OffloadCode(host.Offload{Binary: make([]byte, 64<<10), LPAs: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := task.Store().ReadPage(0); !errors.Is(rerr, ftl.ErrAccessDenied) {
		t.Fatalf("cross-TEE ReadPage = %v, want errors.Is ErrAccessDenied", rerr)
	}
}

// A fault-free SSD with a zero plan behaves exactly like one opened with
// no plan at all.
func TestZeroPlanOpenIsFaultFree(t *testing.T) {
	ssd := openWithPlan(t, &fault.Plan{Seed: 9})
	if err := ssd.HostWrite(0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	data, err := ssd.HostRead(0)
	if err != nil || string(data[:2]) != "ok" {
		t.Fatalf("read = %q, %v", data[:2], err)
	}
}
