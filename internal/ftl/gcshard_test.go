package ftl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

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

// TestGCChannelIsolationUnderWriteStorm pins GC against the per-channel
// device sharding: one tenant hammers channel 0 with enough rewrite
// volume to run garbage collection continuously while writers storm every
// other channel. GC holds channel 0's FTL shard across its device reads,
// programs, and erases — with the device itself sharded per channel, none
// of that couples to the other channels' locks. Run under -race this
// exercises the FTL-shard → device-channel lock pairing from concurrent
// goroutines; the read-back and stats checks catch torn functional state.
func TestGCChannelIsolationUnderWriteStorm(t *testing.T) {
	geo := gcStormGeometry(4)
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)

	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan error, geo.Channels)
	for ch := 0; ch < geo.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			// LPAs congruent to ch mod Channels all live on channel ch;
			// four live LPAs against an 8-block channel forces steady GC.
			lpas := [4]LPA{}
			for i := range lpas {
				lpas[i] = LPA(ch + i*geo.Channels)
			}
			at := sim.Time(0)
			for r := 0; r < rounds; r++ {
				l := lpas[r%len(lpas)]
				payload := []byte(fmt.Sprintf("ch%d r%d", ch, r))
				done, err := f.Write(at, l, payload)
				if err != nil {
					errs <- fmt.Errorf("ch %d write round %d: %w", ch, r, err)
					return
				}
				_, got, err := f.Read(done, l)
				if err != nil {
					errs <- fmt.Errorf("ch %d read round %d: %w", ch, r, err)
					return
				}
				if string(got[:len(payload)]) != string(payload) {
					errs <- fmt.Errorf("ch %d round %d: read %q, want %q", ch, r, got[:len(payload)], payload)
					return
				}
				at = done
			}
		}(ch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("storm never triggered GC; shrink the geometry or grow rounds")
	}
	if want := int64(geo.Channels * rounds); st.HostWrites != want {
		t.Fatalf("host writes = %d, want %d", st.HostWrites, want)
	}
	// Functional state unchanged by the concurrency: every tenant's last
	// payload survives, and the device-side per-channel state agrees with
	// the mapping table (each channel holds exactly its live pages).
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
	for b, p := range f.pending {
		if p != 0 {
			t.Fatalf("block %d still has %d pending programs after quiescence", b, p)
		}
	}
}

// TestGCOnHostageChannelDoesNotBlockOthers wedges channel 0 — its FTL
// shard AND all its mapping stripes held hostage, which is exactly the
// lock footprint a channel-0 GC pass owns mid-relocation — and requires
// GC-forcing write storms on the other channels to run to completion.
// Before the device was sharded per channel, those storms' device calls
// (every program, erase, and GC read) would have queued behind anything
// channel 0 did at the device mutex; now they must not touch any
// channel-0 lock at any layer.
func TestGCOnHostageChannelDoesNotBlockOthers(t *testing.T) {
	geo := gcStormGeometry(2)
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)

	f.chans[0].mu.Lock()
	for s := range f.stripes {
		if s%geo.Channels == 0 {
			f.stripes[s].mu.Lock()
		}
	}
	release := func() {
		for s := range f.stripes {
			if s%geo.Channels == 0 {
				f.stripes[s].mu.Unlock()
			}
		}
		f.chans[0].mu.Unlock()
	}
	defer release()

	done := make(chan error, 1)
	go func() {
		// Enough channel-1 rewrites to force several GC passes while
		// channel 0 is wedged.
		at := sim.Time(0)
		for r := 0; r < 200; r++ {
			l := LPA(1 + (r%4)*geo.Channels)
			d, err := f.Write(at, l, []byte{byte(r)})
			if err != nil {
				done <- fmt.Errorf("round %d: %w", r, err)
				return
			}
			at = d
		}
		if f.Stats().GCRuns == 0 {
			done <- fmt.Errorf("channel-1 storm never ran GC; the hostage proves nothing")
			return
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("channel-1 writers (and their GC) blocked while channel 0 was held: cross-channel lock coupling")
	}
}
