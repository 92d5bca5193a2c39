package ftl

import (
	"testing"

	"iceclave/internal/flash"
)

// checkInvariants fails t unless f holds every invariant the FTL keeps by
// design, read under f.mu against the device's own page states:
//
//   - mapping: every valid entry's PPA maps back to its LPA in reverse,
//     and every reverse-mapped PPA belongs to a valid entry for that LPA;
//   - page states: a page is reverse-mapped iff the device reports it
//     PageValid, so each block's device valid count equals its mapped
//     pages, and an active block's unallocated pages are free;
//   - blocks: each block is in exactly one place — its die's free pool,
//     its die's active block, or used; a bad block is never pooled or
//     active; a pooled block holds no valid page; the bad-block journal
//     and the retirement counters agree with the bad and dead marks;
//   - journals: every entry that differs from the zero value is marked
//     dirty and appears once in the reset journal, and every block that
//     holds a non-free page is in its channel's used list.
//
// A dead die's mapped pages stay mapped by design, so nothing here
// concerns the pages of dead dies.
func checkInvariants(t testing.TB, f *FTL) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	geo := f.geo
	ppb := flash.PPA(geo.PagesPerBlock)

	for l, e := range f.table {
		if e.valid && f.reverse[e.ppa] != LPA(l) {
			t.Fatalf("LPA %d maps to PPA %d, which reverse-maps to %d", l, e.ppa, f.reverse[e.ppa])
		}
	}
	mapped := make([]int32, geo.TotalBlocks())
	for p, l := range f.reverse {
		ppa := flash.PPA(p)
		st := f.dev.State(ppa)
		if l == invalidLPA {
			if st == flash.PageValid {
				t.Fatalf("PPA %d is valid on the device but reverse-maps to no LPA", p)
			}
			continue
		}
		if e := f.table[l]; !e.valid || e.ppa != ppa {
			t.Fatalf("PPA %d reverse-maps to LPA %d, whose entry is %+v", p, l, e)
		}
		if st != flash.PageValid {
			t.Fatalf("PPA %d maps LPA %d but the device holds it in state %d", p, l, st)
		}
		mapped[geo.BlockOf(ppa)]++
	}

	n := f.blocksPerChannel
	erase, valid := make([]int32, n), make([]int32, n)
	placed := make([]bool, geo.TotalBlocks())
	inUsed := make([]bool, geo.TotalBlocks())
	inBad := make([]bool, geo.TotalBlocks())
	var badBlocks, deadDies int64
	for ch := range f.chans {
		cs := &f.chans[ch]
		base := f.firstBlock(ch)
		f.dev.ChannelWear(ch, erase, valid)
		for i := int64(0); i < n; i++ {
			if b := base + flash.BlockID(i); valid[i] != mapped[b] {
				t.Fatalf("block %d: device counts %d valid pages, %d are mapped", b, valid[i], mapped[b])
			}
		}
		place := func(b flash.BlockID, die int, what string) {
			t.Helper()
			switch {
			case b < base || b >= base+flash.BlockID(n) || f.dieOf(b) != die:
				t.Fatalf("channel %d die %d holds block %d of another die as %s", ch, die, b, what)
			case placed[b]:
				t.Fatalf("block %d is %s and also pooled or active elsewhere", b, what)
			case f.bad[b]:
				t.Fatalf("bad block %d is %s", b, what)
			}
			placed[b] = true
		}
		for die := range cs.dies {
			ds := &cs.dies[die]
			if ds.dead {
				deadDies++
			}
			for _, pb := range ds.freeBlocks {
				place(pb.b, die, "pooled")
				if valid[pb.b-base] != 0 {
					t.Fatalf("pooled block %d holds %d valid pages", pb.b, valid[pb.b-base])
				}
			}
			if ds.hasActive {
				place(ds.activeBlock, die, "active")
				first := geo.FirstPage(ds.activeBlock)
				for p := first + flash.PPA(ds.nextPage); p < first+ppb; p++ {
					if st := f.dev.State(p); st != flash.PageFree {
						t.Fatalf("active block %d: unallocated page %d in state %d", ds.activeBlock, p, st)
					}
				}
			}
		}
		for _, b := range cs.usedList {
			if b < base || b >= base+flash.BlockID(n) || inUsed[b] || !f.usedBlocks[b] {
				t.Fatalf("channel %d used list: block %d is foreign, repeated, or unmarked", ch, b)
			}
			inUsed[b] = true
		}
		for _, b := range cs.badList {
			if b < base || b >= base+flash.BlockID(n) || inBad[b] || !f.bad[b] {
				t.Fatalf("channel %d bad list: block %d is foreign, repeated, or unmarked", ch, b)
			}
			inBad[b] = true
			badBlocks++
		}
	}
	for b := range placed {
		switch {
		case f.usedBlocks[b] != inUsed[b]:
			t.Fatalf("block %d: used mark %v, in a used list %v", b, f.usedBlocks[b], inUsed[b])
		case f.bad[b] != inBad[b]:
			t.Fatalf("block %d: bad mark %v, in a bad list %v", b, f.bad[b], inBad[b])
		case !placed[b] && !inUsed[b]:
			t.Fatalf("block %d is neither pooled, active, nor used", b)
		}
		first := geo.FirstPage(flash.BlockID(b))
		for p := first; p < first+ppb; p++ {
			if f.dev.State(p) != flash.PageFree && !inUsed[b] {
				t.Fatalf("block %d holds non-free page %d but is in no used list", b, p)
			}
		}
	}
	if f.stats.BadBlocks != badBlocks || f.stats.DeadDies != deadDies {
		t.Fatalf("stats count %d bad blocks and %d dead dies; the FTL holds %d and %d",
			f.stats.BadBlocks, f.stats.DeadDies, badBlocks, deadDies)
	}

	journaled := make([]bool, len(f.table))
	for _, l := range f.dirty {
		if journaled[l] {
			t.Fatalf("LPA %d appears twice in the reset journal", l)
		}
		journaled[l] = true
	}
	for l, e := range f.table {
		if e.dirty != journaled[l] {
			t.Fatalf("LPA %d: dirty mark %v, in the reset journal %v", l, e.dirty, journaled[l])
		}
		if e != (entry{}) && !e.dirty {
			t.Fatalf("LPA %d differs from the zero entry (%+v) but is not marked dirty", l, e)
		}
	}
}
