package experiments

import (
	"testing"

	"iceclave/internal/core"
	"iceclave/internal/workload"
)

// TestParallelMatchesSerial renders every table four ways — serial and
// memoized, serial with memoization off, across 4 workers with memoization
// off, and across 4 workers memoized (iceclave-bench's mode, where workers
// share memo entries) — and requires byte-identical output: the acceptance
// bar for both the result cache and the parallel harness.
func TestParallelMatchesSerial(t *testing.T) {
	sc := workload.TinyScale()
	serial, err := NewSuite(sc, core.DefaultConfig()).All()
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		s    *Suite
	}{
		{"unmemoized", NewSuite(sc, core.DefaultConfig()).SetMemoize(false)},
		{"parallel unmemoized", NewSuite(sc, core.DefaultConfig()).SetMemoize(false).SetWorkers(4)},
		{"parallel memoized", NewSuite(sc, core.DefaultConfig()).SetWorkers(4)},
	} {
		got, err := leg.s.All()
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("%s: table counts differ: %d vs %d", leg.name, len(got), len(serial))
		}
		for i := range serial {
			if got[i].ID != serial[i].ID {
				t.Fatalf("%s: table %d: ID %q vs %q", leg.name, i, got[i].ID, serial[i].ID)
			}
			if g, want := got[i].String(), serial[i].String(); g != want {
				t.Errorf("%s: %s diverges from the serial memoized output:\n--- serial ---\n%s\n--- %s ---\n%s",
					leg.name, serial[i].ID, want, leg.name, g)
			}
		}
	}
}

// TestTraceSingleflight checks concurrent Trace calls record one trace.
func TestTraceSingleflight(t *testing.T) {
	s := NewSuite(workload.TinyScale(), core.DefaultConfig()).SetWorkers(8)
	ptrs := make([]*workload.Trace, 16)
	err := s.mapIndexed(len(ptrs), func(i int) error {
		tr, err := s.Trace("Filter")
		ptrs[i] = tr
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ptrs); i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("concurrent Trace calls produced distinct recordings")
		}
	}
}
