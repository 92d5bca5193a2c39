package flash

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCrossChannelNoSharedLock is the device-level analogue of the FTL's
// cross-channel contract: with channel 0's shard lock held hostage, a
// tenant pinned to channel 1 must still complete reads, programs,
// invalidates, erases, and state queries — under the old device-wide
// mutex every one of these deadlocks and the test times out.
func TestCrossChannelNoSharedLock(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	p1 := PPA(g.PagesPerChannel()) // first page of channel 1
	if g.ChannelOf(p1) != 1 {
		t.Fatalf("page %d on channel %d, want 1", p1, g.ChannelOf(p1))
	}
	b1 := g.BlockOf(p1)

	d.chans[0].mu.Lock()
	defer d.chans[0].mu.Unlock()

	done := make(chan error, 1)
	go func() {
		if _, err := d.Program(0, p1, []byte("channel one")); err != nil {
			done <- fmt.Errorf("program: %w", err)
			return
		}
		if _, _, err := d.Read(0, p1); err != nil {
			done <- fmt.Errorf("read: %w", err)
			return
		}
		if st := d.State(p1); st != PageValid {
			done <- fmt.Errorf("state = %d, want valid", st)
			return
		}
		if _, n := blockWear(d, b1); n != 1 {
			done <- fmt.Errorf("valid pages = %d, want 1", n)
			return
		}
		if err := d.Invalidate(p1); err != nil {
			done <- fmt.Errorf("invalidate: %w", err)
			return
		}
		if _, err := d.Erase(0, b1); err != nil {
			done <- fmt.Errorf("erase: %w", err)
			return
		}
		if n, _ := blockWear(d, b1); n != 1 {
			done <- fmt.Errorf("erase count = %d, want 1", n)
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
		t.Fatal("channel-1 tenant blocked on a lock while channel 0 was held: device state is not sharded per channel")
	}
}

// TestSnapshotRaceWithPrograms pins the flash.Stats fix: Snapshot must be
// safe (and lock-free) against concurrent writers on every channel. Run
// under -race this catches any return to mutex-guarded plain counters
// read outside the mutex.
func TestSnapshotRaceWithPrograms(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	perChannel := g.PagesPerChannel()

	const programsPerChannel = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for ch := 0; ch < g.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			base := PPA(int64(ch) * perChannel)
			for i := 0; i < programsPerChannel; i++ {
				if _, err := d.Program(0, base+PPA(i), []byte{byte(i)}); err != nil {
					t.Errorf("channel %d program %d: %v", ch, i, err)
					return
				}
			}
		}(ch)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := d.Snapshot()
			if s.BytesWritten != s.Programs*int64(g.PageSize) {
				// Each counter is individually atomic; this derived
				// relation holds at quiescence, checked below. Here we
				// only exercise concurrent reads.
				continue
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	s := d.Snapshot()
	want := int64(g.Channels * programsPerChannel)
	if s.Programs != want || s.BytesWritten != want*int64(g.PageSize) {
		t.Fatalf("snapshot after quiescence = %+v, want %d programs", s, want)
	}
}

// TestCrossChannelWriteStormIntegrity storms every channel from its own
// goroutine with program/invalidate/erase churn (the write-storm
// microbenchmark's access pattern) and verifies the per-channel functional
// state afterwards: the sharded state arrays must end exactly where a
// serial run would.
func TestCrossChannelWriteStormIntegrity(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	perChannel := g.PagesPerChannel()
	blocksPer := g.BlocksPerChannel()

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, g.Channels)
	for ch := 0; ch < g.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			basePage := PPA(int64(ch) * perChannel)
			baseBlock := BlockID(int64(ch) * blocksPer)
			for r := 0; r < rounds; r++ {
				for p := int64(0); p < perChannel; p++ {
					if _, err := d.Program(0, basePage+PPA(p), []byte{byte(ch), byte(r)}); err != nil {
						errs <- fmt.Errorf("ch %d round %d program: %w", ch, r, err)
						return
					}
				}
				for p := int64(0); p < perChannel; p++ {
					if err := d.Invalidate(basePage + PPA(p)); err != nil {
						errs <- fmt.Errorf("ch %d round %d invalidate: %w", ch, r, err)
						return
					}
				}
				for b := int64(0); b < blocksPer; b++ {
					if _, err := d.Erase(0, baseBlock+BlockID(b)); err != nil {
						errs <- fmt.Errorf("ch %d round %d erase: %w", ch, r, err)
						return
					}
				}
			}
		}(ch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for b := BlockID(0); int64(b) < g.TotalBlocks(); b++ {
		got, n := blockWear(d, b)
		if got != rounds {
			t.Fatalf("block %d erase count = %d, want %d", b, got, rounds)
		}
		if n != 0 {
			t.Fatalf("block %d has %d valid pages after final erase", b, n)
		}
	}
	s := d.Snapshot()
	wantPrograms := int64(g.Channels) * rounds * perChannel
	wantErases := int64(g.Channels) * rounds * blocksPer
	if s.Programs != wantPrograms || s.Erases != wantErases {
		t.Fatalf("stats = %+v, want %d programs, %d erases", s, wantPrograms, wantErases)
	}
}
