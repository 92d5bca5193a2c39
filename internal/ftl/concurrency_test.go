package ftl

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// The tests in this file race goroutines through the FTL's public
// operations. Run under -race they check that the FTL's one mutex guards
// the table, the reverse map, the allocators, and the device below; the
// payload read-backs catch torn mappings, and checkInvariants checks the
// whole state once the goroutines have quiesced.

// gcStormGeometry is small enough that a few rewrites per LPA force GC on
// every channel touched.
func gcStormGeometry(channels int) flash.Geometry {
	return flash.Geometry{
		Channels:        channels,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  8,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
}

// rewriteAndReadBack has one tenant rewrite its LPAs in turn for rounds
// rounds, reading each write back.
func rewriteAndReadBack(f *FTL, name string, lpas []LPA, rounds int) error {
	at := sim.Time(0)
	for r := 0; r < rounds; r++ {
		l := lpas[r%len(lpas)]
		payload := []byte(fmt.Sprintf("%s r%d", name, r))
		done, err := f.Write(at, l, payload)
		if err != nil {
			return fmt.Errorf("%s write round %d: %w", name, r, err)
		}
		_, got, err := f.Read(done, l)
		if err != nil {
			return fmt.Errorf("%s read round %d: %w", name, r, err)
		}
		if string(got[:len(payload)]) != string(payload) {
			return fmt.Errorf("%s round %d: read %q, want %q", name, r, got[:len(payload)], payload)
		}
		at = done
	}
	return nil
}

// runTenants runs one goroutine per tenant and fails t with every error.
func runTenants(t *testing.T, tenants int, body func(i int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = body(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChannelPinnedTenants races one writer+reader per channel,
// each pinned to its own channel's LPAs, with enough rewrite volume to
// force garbage collection mid-flight.
func TestConcurrentChannelPinnedTenants(t *testing.T) {
	geo := gcStormGeometry(4)
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)
	const rounds = 200
	runTenants(t, geo.Channels, func(ch int) error {
		// LPAs congruent to ch mod Channels all live on channel ch.
		lpas := make([]LPA, 4)
		for i := range lpas {
			lpas[i] = LPA(ch + i*geo.Channels)
		}
		return rewriteAndReadBack(f, fmt.Sprintf("ch%d", ch), lpas, rounds)
	})
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("workload never triggered GC; grow rounds so relocation races are exercised")
	}
	if want := int64(geo.Channels * rounds); st.HostWrites != want {
		t.Fatalf("host writes = %d, want %d", st.HostWrites, want)
	}
	checkInvariants(t, f)
}

// TestConcurrentSameChannelWriters races many goroutines writing disjoint
// LPAs of one channel, with enough rewrite volume that their writes
// interleave with each other's GC passes.
func TestConcurrentSameChannelWriters(t *testing.T) {
	geo := gcStormGeometry(2)
	geo.ChipsPerChannel = 2
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)
	runTenants(t, 4, func(w int) error {
		// All writers hammer channel 0 (even LPAs), disjoint pages.
		return rewriteAndReadBack(f, fmt.Sprintf("w%d", w), []LPA{LPA(2 * w)}, 150)
	})
	if st := f.Stats(); st.GCRuns == 0 {
		t.Fatal("workload never triggered GC; grow rounds so writer-vs-GC interleavings are exercised")
	}
	checkInvariants(t, f)
}

// TestGCChannelIsolationUnderWriteStorm storms every channel from its own
// goroutine with enough rewrite volume to run garbage collection
// continuously, then checks the functional state: every tenant's last
// payload survives, and no LPA's pages migrated off its channel.
func TestGCChannelIsolationUnderWriteStorm(t *testing.T) {
	geo := gcStormGeometry(4)
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)
	const rounds = 300
	runTenants(t, geo.Channels, func(ch int) error {
		// Four live LPAs against an 8-block channel force steady GC.
		lpas := make([]LPA, 4)
		for i := range lpas {
			lpas[i] = LPA(ch + i*geo.Channels)
		}
		return rewriteAndReadBack(f, fmt.Sprintf("ch%d", ch), lpas, rounds)
	})

	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("storm never triggered GC; shrink the geometry or grow rounds")
	}
	if want := int64(geo.Channels * rounds); st.HostWrites != want {
		t.Fatalf("host writes = %d, want %d", st.HostWrites, want)
	}
	for ch := 0; ch < geo.Channels; ch++ {
		for i := 0; i < 4; i++ {
			l := LPA(ch + i*geo.Channels)
			lastRound := rounds - 1 - (rounds-1-i)%4 // last r with r%4 == i
			want := fmt.Sprintf("ch%d r%d", ch, lastRound)
			_, got, err := f.Read(0, l)
			if err != nil {
				t.Fatalf("final read ch %d lpa %d: %v", ch, l, err)
			}
			if string(got[:len(want)]) != want {
				t.Fatalf("final read ch %d lpa %d = %q, want %q", ch, l, got[:len(want)], want)
			}
			ppa, err := f.Translate(l)
			if err != nil {
				t.Fatal(err)
			}
			if got := geo.ChannelOf(ppa); got != ch {
				t.Fatalf("LPA %d migrated to channel %d, want %d", l, got, ch)
			}
		}
	}
	checkInvariants(t, f)
}

// TestConcurrentMixedOwnership races ID releases (each over the whole
// owned list) against permission-checked translations and cross-tenant
// denied writes, the pattern TEE teardown produces while other tenants
// keep running. Writes to released entries adopt them again, so
// ownership churns under the readers.
func TestConcurrentMixedOwnership(t *testing.T) {
	f := newTestFTL(t)
	var lpas []LPA
	for l := LPA(0); l < 16; l++ {
		if _, err := f.Write(0, l, []byte{byte(l)}); err != nil {
			t.Fatal(err)
		}
		if err := f.ClaimID(l, TEEID(1+l%2)); err != nil {
			t.Fatal(err)
		}
		lpas = append(lpas, l)
	}
	// Denied access is a legal race outcome (ownership churns under
	// ReleaseIDs); anything else — unmapped entries, device-full — means
	// the FTL tore its state and must fail the test.
	okErr := func(err error) bool { return err == nil || errors.Is(err, ErrAccessDenied) }
	runTenants(t, 4, func(w int) error {
		id := TEEID(1 + w%2)
		for r := 0; r < 100; r++ {
			l := lpas[(w+r)%len(lpas)]
			if _, err := f.TranslateFor(l, id); !okErr(err) {
				return fmt.Errorf("worker %d TranslateFor(%d): %w", w, l, err)
			}
			if _, _, _, err := f.WriteFor(0, l, []byte{byte(r)}, id); !okErr(err) {
				return fmt.Errorf("worker %d WriteFor(%d): %w", w, l, err)
			}
			if r%10 == 0 {
				f.ReleaseIDs(id, lpas)
			}
		}
		return nil
	})
	for _, l := range lpas {
		if _, err := f.Translate(l); err != nil {
			t.Fatalf("LPA %d after the race: %v", l, err)
		}
	}
	checkInvariants(t, f)
}
