package dram

import "testing"

func TestPageCacheCapacityEffect(t *testing.T) {
	// A working set that fits in the big cache but not the small one: the
	// Figure 16 mechanism.
	const pageSize = 4096
	big := NewPageCache(1<<20, pageSize)   // 256 pages
	small := NewPageCache(1<<18, pageSize) // 64 pages
	const workingSet = 128
	for pass := 0; pass < 4; pass++ {
		for p := uint64(0); p < workingSet; p++ {
			big.Touch(p, false)
			small.Touch(p, false)
		}
	}
	if bh, sh := big.Stats().HitRate(), small.Stats().HitRate(); bh <= sh {
		t.Fatalf("bigger cache hit rate %v not better than smaller %v", bh, sh)
	}
}
