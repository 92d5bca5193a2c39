package ftl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// pipelineGeometry returns a small device with diesPerChannel dies behind
// each of two channels.
func pipelineGeometry(diesPerChannel int) flash.Geometry {
	return flash.Geometry{
		Channels:        2,
		ChipsPerChannel: diesPerChannel,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  8,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
}

// TestDiePipeliningOverlap is the acceptance pin for per-die program
// pipelining: two writes issued at the same instant to one channel land on
// different dies (the allocator round-robins), so only their short bus
// transfers serialize and the second completes in under 2x tPROG. The
// same pair forced onto a single die still serializes the full program
// latency.
func TestDiePipeliningOverlap(t *testing.T) {
	timing := flash.DefaultTiming()
	tPROG := timing.ProgramLatency

	// Two dies on channel 0: LPAs 0 and 2 both pick channel 0.
	dev, err := flash.NewDevice(pipelineGeometry(2), timing)
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)
	xfer := dev.PageTransferTime()
	if _, err := f.Write(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	done, err := f.Write(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done >= 2*tPROG {
		t.Fatalf("two programs to different dies of one channel finished at %v, want < 2x tPROG (%v)",
			done, 2*tPROG)
	}
	if want := 2*xfer + tPROG; done != want {
		t.Fatalf("pipelined completion %v, want bus-serialized %v", done, want)
	}

	// One die per channel: the same pair must serialize on the die.
	dev1, err := flash.NewDevice(pipelineGeometry(1), timing)
	if err != nil {
		t.Fatal(err)
	}
	f1 := New(dev1)
	if _, err := f1.Write(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	done1, err := f1.Write(0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done1 < 2*tPROG {
		t.Fatalf("same-die programs finished at %v, want >= 2x tPROG (%v)", done1, 2*tPROG)
	}
}

// TestErasePipelinesAcrossDies pins the erase half: GC-style block erases
// on different dies of one channel overlap in simulated time because the
// erase occupies only the die-local write server.
func TestErasePipelinesAcrossDies(t *testing.T) {
	timing := flash.DefaultTiming()
	geo := pipelineGeometry(2)
	dev, err := flash.NewDevice(geo, timing)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks on channel 0, dies 0 and 1.
	var blocks []flash.BlockID
	for b := flash.BlockID(0); int64(b) < geo.TotalBlocks() && len(blocks) < 2; b++ {
		first := geo.FirstPage(b)
		if geo.ChannelOf(first) == 0 && geo.DieIndex(first) == len(blocks) {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("found %d channel-0 blocks on distinct dies", len(blocks))
	}
	if _, err := dev.Erase(0, blocks[0]); err != nil {
		t.Fatal(err)
	}
	done, err := dev.Erase(0, blocks[1])
	if err != nil {
		t.Fatal(err)
	}
	if done >= 2*timing.EraseLatency {
		t.Fatalf("cross-die erases finished at %v, want < 2x tERS (%v)", done, 2*timing.EraseLatency)
	}
}

// TestShardNotHeldAcrossProgram pins the pipelining lock contract through
// the test seam: when the write path issues its device program, neither
// the channel shard nor the target LPA's mapping stripe may be held.
// TryLock fails if any goroutine (including this one) holds the mutex, so
// the single-goroutine run proves the writer itself dropped both locks.
func TestShardNotHeldAcrossProgram(t *testing.T) {
	f := newTestFTL(t)
	const l = LPA(4)
	checks := 0
	programHook = func(ch int) {
		checks++
		if !f.chans[ch].mu.TryLock() {
			t.Errorf("channel %d shard held across device Program", ch)
		} else {
			f.chans[ch].mu.Unlock()
		}
		st := f.stripeOf(l)
		if !st.mu.TryLock() {
			t.Errorf("mapping stripe held across device Program")
		} else {
			st.mu.Unlock()
		}
	}
	defer func() { programHook = nil }()

	if _, err := f.Write(0, l, []byte("host path")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.WriteFor(0, l, []byte("tee path"), 0); err != nil {
		t.Fatal(err)
	}
	if checks != 2 {
		t.Fatalf("program hook ran %d times, want 2 (Write and WriteFor)", checks)
	}
}

// TestStageWaitsForInFlightPrograms pins the liveness rule of the
// pipelined write path: when a channel's free pool is empty and the only
// reclaimable block carries an in-flight program, a writer must wait for
// that program's commit (which turns the block into a GC victim) instead
// of failing with a spurious ErrDeviceFull. The in-flight program is
// simulated directly through the shard state, so the scenario is exact.
func TestStageWaitsForInFlightPrograms(t *testing.T) {
	geo := flash.Geometry{
		Channels:        2,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  2,
		PagesPerBlock:   2,
		PageSize:        4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)

	// Drive channel 0 (blocks 0 and 1) to: block 0 = one valid + one
	// invalid page (the only victim candidate), block 1 = active, free
	// pool empty.
	for _, l := range []LPA{0, 2, 0} {
		if _, err := f.Write(0, l, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.FreeBlocks(0); got != 0 {
		t.Fatalf("free pool = %d, want 0 for the exhaustion scenario", got)
	}

	// Simulate a concurrent writer paused between stage and commit on
	// block 0.
	cs := &f.chans[0]
	cs.mu.Lock()
	f.pending[0]++
	cs.inflight++
	cs.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := f.Write(0, 2, nil)
		done <- err
	}()

	// The writer must wait, not fail.
	select {
	case err := <-done:
		t.Fatalf("write finished with pending program blocking GC: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The in-flight program commits; block 0 becomes a victim and the
	// stalled writer completes.
	cs.mu.Lock()
	f.pending[0]--
	cs.inflight--
	cs.mu.Unlock()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after commit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still stalled after the in-flight program committed")
	}
}

// TestConcurrentSameChannelWriters races many goroutines writing LPAs of
// one channel with enough rewrite volume to force GC. Under -race this
// exercises the narrowed critical sections: stage/commit interleave with
// other writers' device programs and with GC passes, and the per-block
// in-flight guard must keep GC off blocks whose programs have not
// committed. The read-back check catches torn mappings.
func TestConcurrentSameChannelWriters(t *testing.T) {
	geo := flash.Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  8,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev)

	const writers, rounds = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// All writers hammer channel 0 (even LPAs), disjoint pages.
			l := LPA(2 * w)
			at := sim.Time(0)
			for r := 0; r < rounds; r++ {
				payload := []byte(fmt.Sprintf("w%d r%d", w, r))
				done, err := f.Write(at, l, payload)
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				_, got, err := f.Read(done, l)
				if err != nil {
					errs <- fmt.Errorf("writer %d read %d: %w", w, r, err)
					return
				}
				if string(got[:len(payload)]) != string(payload) {
					errs <- fmt.Errorf("writer %d round %d: read %q", w, r, got[:len(payload)])
					return
				}
				at = done
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := f.Stats(); st.GCRuns == 0 {
		t.Fatal("workload never triggered GC; grow rounds so in-flight-vs-GC interleavings are exercised")
	}
	// Every in-flight marker must have been retired.
	for b, p := range f.pending {
		if p != 0 {
			t.Fatalf("block %d still has %d pending programs after quiescence", b, p)
		}
	}
	for ch := range f.chans {
		if n := f.chans[ch].inflight; n != 0 {
			t.Fatalf("channel %d still reports %d in-flight programs after quiescence", ch, n)
		}
	}
}
