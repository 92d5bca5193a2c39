package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iceclave/internal/sim"
)

// resetStack resets the FTL and its device together, the way the core
// resource pool recycles a replay stack.
func resetStack(f *FTL) {
	f.Reset()
	f.Device().Reset()
}

// driveFTL runs a GC-heavy rewrite workload and returns a transcript of
// completion times, stats, wear spread, and translations — everything an
// equivalence check needs to tell two FTLs apart.
func driveFTL(t *testing.T, f *FTL) string {
	t.Helper()
	var log bytes.Buffer
	var at sim.Time
	half := LPA(f.LogicalPages() / 2)
	for round := 0; round < 4; round++ {
		for l := LPA(0); l < half; l++ {
			done, err := f.Write(at, l, nil)
			if err != nil {
				t.Fatalf("round %d write %d: %v", round, l, err)
			}
			at = done
		}
	}
	fmt.Fprintf(&log, "t=%d stats=%+v spread=%d\n", at, f.Stats(), f.MaxEraseSpread())
	for l := LPA(0); l < half; l += 3 {
		ppa, err := f.Translate(l)
		if err != nil {
			t.Fatalf("translate %d: %v", l, err)
		}
		fmt.Fprintf(&log, "%d->%d\n", l, ppa)
	}
	return log.String()
}

// TestFTLResetEquivalentToFresh pins the FTL half of the pool reset
// contract: after a GC-heavy churn, ID stamping, and a stack reset, the
// FTL must replay a workload exactly like a fresh one — same virtual
// timings, same physical placements, same stats, same wear spread.
func TestFTLResetEquivalentToFresh(t *testing.T) {
	a := newTestFTL(t)
	driveFTL(t, a)
	if err := a.ClaimID(3, 7); err != nil {
		t.Fatal(err)
	}
	resetStack(a)

	if s := a.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset: %+v", s)
	}
	if _, err := a.Translate(0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("translate after reset: %v, want ErrUnmapped", err)
	}
	if id, err := a.IDOf(3); err != nil || id != IDNone {
		t.Fatalf("IDOf(3) after reset = %d, %v; want IDNone", id, err)
	}
	a.ResetStats() // the probes above counted a translation
	for ch := range a.chans {
		if got := a.FreeBlocks(ch); got != 16 {
			t.Fatalf("channel %d has %d free blocks after reset, want 16", ch, got)
		}
	}

	b := newTestFTL(t)
	if got, want := driveFTL(t, a), driveFTL(t, b); got != want {
		t.Fatalf("reset FTL diverges from fresh:\nreset:\n%s\nfresh:\n%s", got, want)
	}
}

// TestResetClearsInFlightState pins the stale in-flight hazard (satellite
// of the pool work): a program staged but never committed — the state a
// crashed or denied writer leaves behind — must not survive a reset as a
// pending marker that holds GC off its block or inflates the shard's
// in-flight count into spurious full-device retries.
func TestResetClearsInFlightState(t *testing.T) {
	f := newTestFTL(t)
	ppa, _, err := f.stage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := f.geo.BlockOf(ppa)
	if f.pending[b] != 1 || f.chans[0].inflight != 1 {
		t.Fatalf("stage left pending=%d inflight=%d", f.pending[b], f.chans[0].inflight)
	}
	resetStack(f)
	for blk := range f.pending {
		if f.pending[blk] != 0 {
			t.Fatalf("block %d pending=%d after reset", blk, f.pending[blk])
		}
	}
	for ch := range f.chans {
		if f.chans[ch].inflight != 0 {
			t.Fatalf("channel %d inflight=%d after reset", ch, f.chans[ch].inflight)
		}
	}
	fillWholeDevice(t, f)
}

// TestResetClearsOrphanedPages pins the other half of the hazard: a
// WriteFor denied at commit (ownership changed mid-flight, PR 3) orphans
// the freshly programmed page as invalid with no reverse mapping. After a
// reset the reused stack must accept a full logical-space fill — stale
// orphans must not surface as ErrDeviceFull or unreclaimable blocks.
func TestResetClearsOrphanedPages(t *testing.T) {
	f := newTestFTL(t)
	const l = LPA(5)
	programHook = func(int) {
		if err := f.ClaimID(l, 2); err != nil {
			t.Error(err)
		}
	}
	defer func() { programHook = nil }()
	_, _, _, err := f.WriteFor(0, l, nil, 1)
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mid-flight ownership flip: err=%v, want ErrAccessDenied", err)
	}
	programHook = nil
	resetStack(f)
	fillWholeDevice(t, f)
}

// fillWholeDevice writes every logical page once — with over-provisioning
// headroom this must always succeed on a fresh (or correctly reset)
// stack, exercising GC along the way.
func fillWholeDevice(t *testing.T, f *FTL) {
	t.Helper()
	var at sim.Time
	for l := LPA(0); int64(l) < f.LogicalPages(); l++ {
		done, err := f.Write(at, l, nil)
		if err != nil {
			t.Fatalf("fill write %d/%d: %v", l, f.LogicalPages(), err)
		}
		at = done
	}
}
