package ftl

import (
	"errors"
	"testing"

	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// refEraseCount reads one block's erase count with its own device call —
// the per-block access pattern the batched allocator replaced.
func refEraseCount(dev *flash.Device, b flash.BlockID) int {
	n := dev.Geometry().BlocksPerChannel()
	erase := make([]int32, n)
	dev.ChannelWear(int(int64(b)/n), erase, nil)
	return int(erase[int64(b)%n])
}

// refValidPages counts block b's valid pages from the page states, not
// from the device's incremental per-block counts.
func refValidPages(dev *flash.Device, b flash.BlockID) int {
	geo := dev.Geometry()
	n := 0
	for p := geo.FirstPage(b); p < geo.FirstPage(b)+flash.PPA(geo.PagesPerBlock); p++ {
		if dev.State(p) == flash.PageValid {
			n++
		}
	}
	return n
}

// refPickFreeBlock is the reference wear-leveling pick: the policy of
// pickFreeBlock, reading every pooled block's erase count from the
// device instead of the pool entry. leastWorn reports whether the spread
// exceeded wearDelta.
func refPickFreeBlock(f *FTL, ds *dieState) (idx int, leastWorn bool) {
	minIdx, minE, maxE := 0, int(^uint(0)>>1), 0
	for i, pb := range ds.freeBlocks {
		e := refEraseCount(f.dev, pb.b)
		if e < minE {
			minE, minIdx = e, i
		}
		if e > maxE {
			maxE = e
		}
	}
	if maxE-minE > f.wearDelta {
		return minIdx, true
	}
	return 0, false
}

// refPickVictim is the reference victim selection: the policy of
// pickVictim as a walk over every block of the device, filtered by
// channel, with a freshly built skip set and per-block device reads.
func refPickVictim(f *FTL, ch int) (flash.BlockID, bool) {
	cs := &f.chans[ch]
	skip := make(map[flash.BlockID]bool)
	for i := range cs.dies {
		ds := &cs.dies[i]
		for _, pb := range ds.freeBlocks {
			skip[pb.b] = true
		}
		if ds.hasActive {
			skip[ds.activeBlock] = true
		}
	}
	best := flash.BlockID(-1)
	bestValid := f.geo.PagesPerBlock + 1
	bestErase := int(^uint(0) >> 1)
	for b := flash.BlockID(0); int64(b) < f.geo.TotalBlocks(); b++ {
		if f.geo.ChannelOf(f.geo.FirstPage(b)) != ch {
			continue
		}
		die := f.geo.DieIndex(f.geo.FirstPage(b)) % f.geo.DiesPerChannel()
		if skip[b] || f.pending[b] > 0 || f.bad[b] || cs.dies[die].dead {
			continue
		}
		valid := refValidPages(f.dev, b)
		if valid >= f.geo.PagesPerBlock {
			continue
		}
		erase := refEraseCount(f.dev, b)
		if valid < bestValid || (valid == bestValid && erase < bestErase) {
			best, bestValid, bestErase = b, valid, erase
		}
	}
	return best, best >= 0
}

// TestAllocatorMatchesPerBlockReference is the allocator's oracle: a
// seeded, skewed, GC-heavy write stream on a 2-channel, 4-dies-per-channel
// device with program failures and one die death, where every free-block
// pick and every GC victim must equal the per-block reference's, and every
// pooled erase count the device's. The test narrows wearDelta so that
// the least-worn branch fires. Halfway through, the stack is reset FTL
// first, so the pools' erase counts must be reloaded from the reset
// device rather than kept from the worn one.
func TestAllocatorMatchesPerBlockReference(t *testing.T) {
	geo := flash.Geometry{
		Channels: 2, ChipsPerChannel: 2, DiesPerChip: 2, PlanesPerDie: 1,
		BlocksPerPlane: 12, PagesPerBlock: 8, PageSize: 4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{
		Seed:        5,
		ProgramFail: 0.002,
		DieDeaths:   []fault.DieDeath{{Channel: 1, Die: 2, At: 400 * sim.Millisecond}},
	}
	inj, err := fault.NewInjectorFor(plan, geo.Channels, geo.DiesPerChannel())
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(inj)
	f := New(dev)
	f.wearDelta = 2 // the default 8 never spreads that far in 8,000 writes

	var picks, leastWorn, passes int
	freePickHook = func(ch, die, idx int) {
		ds := &f.chans[ch].dies[die]
		for _, pb := range ds.freeBlocks {
			if e := refEraseCount(f.dev, pb.b); int(pb.erases) != e {
				t.Errorf("pick %d: pooled block %d carries erase count %d, device has %d", picks, pb.b, pb.erases, e)
			}
		}
		want, worn := refPickFreeBlock(f, ds)
		if idx != want {
			t.Errorf("pick %d (ch %d die %d): pool index %d, reference %d", picks, ch, die, idx, want)
		}
		picks++
		if worn && want != 0 {
			leastWorn++
		}
	}
	victimHook = func(ch int, victim flash.BlockID, ok bool) {
		want, wantOK := refPickVictim(f, ch)
		if victim != want || ok != wantOK {
			t.Errorf("GC pass %d (ch %d): victim %d/%v, reference %d/%v", passes, ch, victim, ok, want, wantOK)
		}
		passes++
	}
	defer func() { freePickHook, victimHook = nil, nil }()

	// Mostly rewrite a hot tenth of the working set, so cold blocks keep
	// their low erase counts while hot ones cycle through GC.
	rng := sim.NewRNG(9)
	working := int(f.LogicalPages() * 4 / 10)
	var at sim.Time
	var dieErrs int
	for i := 0; i < 8000; i++ {
		if i == 4000 {
			resetStack(f)
			at = 0
		}
		l := LPA(rng.Intn(working))
		if rng.Bool(0.8) {
			l = LPA(rng.Intn(working / 10))
		}
		done, err := f.Write(at, l, nil)
		if errors.Is(err, flash.ErrDieDead) {
			dieErrs++ // GC read a victim on the die before the FTL marked it dead
			continue
		}
		if err != nil {
			t.Fatalf("write %d (LPA %d): %v", i, l, err)
		}
		at = done
	}
	st := f.Stats()
	t.Logf("picks=%d least-worn=%d gc-passes=%d bad=%d dead=%d die-errors=%d spread=%d",
		picks, leastWorn, passes, st.BadBlocks, st.DeadDies, dieErrs, f.MaxEraseSpread())
	if leastWorn == 0 {
		t.Error("the least-worn branch never chose a block other than the pool head")
	}
	// Stats count since the reset: the second half alone must retire
	// blocks and lose the die.
	if passes == 0 || st.BadBlocks == 0 || st.DeadDies != 1 {
		t.Errorf("stream did not exercise GC, retirement and die death: passes=%d %+v", passes, st)
	}
}

// TestCollectChannelAllocatesNothing pins the steady-state GC pass at
// zero heap allocations: victim selection reuses the shard's scratch, and
// a warmed FTL grows none of its journals.
func TestCollectChannelAllocatesNothing(t *testing.T) {
	f := newTestFTL(t)
	fillWholeDevice(t, f)
	var at sim.Time
	for i := 0; i < 2000; i++ {
		done, err := f.Write(at, LPA(i%24), nil)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	cs := &f.chans[0]
	reclaimed := 0
	allocs := testing.AllocsPerRun(20, func() {
		cs.mu.Lock()
		done, ok, err := f.collectChannel(at, 0)
		cs.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			reclaimed++
			at = done
		}
	})
	if allocs != 0 {
		t.Fatalf("GC pass allocated %.1f times, want 0", allocs)
	}
	if reclaimed == 0 {
		t.Fatal("no GC pass reclaimed a block")
	}
}
