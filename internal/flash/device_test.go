package flash

import (
	"bytes"
	"sync"
	"testing"

	"iceclave/internal/sim"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(testGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := testDevice(t)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	done, err := d.Program(0, 10, payload)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("program took no time")
	}
	_, data, err := d.Read(done, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("read returned different data")
	}
}

func TestEraseBeforeWriteDiscipline(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(0, 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 5, nil); err == nil {
		t.Fatal("double program accepted")
	}
	if err := d.Invalidate(5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 5, nil); err == nil {
		t.Fatal("program of invalid (un-erased) page accepted")
	}
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 5, nil); err != nil {
		t.Fatalf("program after erase rejected: %v", err)
	}
}

func TestReadFreePageRejected(t *testing.T) {
	d := testDevice(t)
	if _, _, err := d.Read(0, 3); err == nil {
		t.Fatal("read of free page accepted")
	}
}

func TestEraseWithValidPagesRejected(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(0, 0); err == nil {
		t.Fatal("erase of block with valid page accepted")
	}
}

func TestEraseCountAndState(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Invalidate(0)
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if e, _ := blockWear(d, 0); e != 1 {
		t.Fatalf("erase count = %d, want 1", e)
	}
	if d.State(0) != PageFree {
		t.Fatal("page not free after erase")
	}
}

func TestReadTimingIncludesArrayAndBus(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	tm := d.Timing()
	start := sim.Time(1000 * sim.Microsecond)
	done, _, err := d.Read(start, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := start + tm.ReadLatency + sim.DurationForBytes(4096, tm.ChannelBandwidth)
	if done != want {
		t.Fatalf("read done = %v, want %v", done, want)
	}
}

func TestChannelContentionSerializesTransfers(t *testing.T) {
	g := testGeometry()
	g.Channels = 1
	d, err := NewDevice(g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	// Two pages on different dies of the same channel: array reads overlap,
	// bus transfers serialize.
	pagesPerDie := PPA(int64(g.PlanesPerDie) * g.PagesPerPlane())
	p1, p2 := PPA(0), pagesPerDie
	if g.DieIndex(p1) == g.DieIndex(p2) {
		t.Fatal("test pages on same die")
	}
	d.Program(0, p1, nil)
	d.Program(0, p2, nil)
	d.ResetTiming()
	xfer := sim.DurationForBytes(4096, d.Timing().ChannelBandwidth)
	done1, _, _ := d.Read(0, p1)
	done2, _, _ := d.Read(0, p2)
	if done2 != done1+xfer {
		t.Fatalf("second read done=%v, want %v (bus-serialized)", done2, done1+xfer)
	}
}

func TestDieContentionSerializesReads(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Program(0, 1, nil) // same die, same plane
	d.ResetTiming()
	tm := d.Timing()
	done1, _, _ := d.Read(0, 0)
	done2, _, _ := d.Read(0, 1)
	if done2 < done1+tm.ReadLatency {
		t.Fatalf("same-die reads overlapped: %v then %v", done1, done2)
	}
}

func TestChannelParallelismAcrossChannels(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	pagesPerChannel := PPA(int64(g.ChipsPerChannel) * int64(g.DiesPerChip) * int64(g.PlanesPerDie) * g.PagesPerPlane())
	p1, p2 := PPA(0), pagesPerChannel // channel 0 and channel 1
	if g.ChannelOf(p1) == g.ChannelOf(p2) {
		t.Fatal("test pages on same channel")
	}
	d.Program(0, p1, nil)
	d.Program(0, p2, nil)
	d.ResetTiming()
	done1, _, _ := d.Read(0, p1)
	done2, _, _ := d.Read(0, p2)
	if done1 != done2 {
		t.Fatalf("cross-channel reads should fully overlap: %v vs %v", done1, done2)
	}
}

func TestStats(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Read(0, 0)
	d.Invalidate(0)
	d.Erase(0, 0)
	s := d.Snapshot()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesRead != 4096 || s.BytesWritten != 4096 {
		t.Fatalf("byte stats = %+v", s)
	}
}

func TestValidPages(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Program(0, 1, nil)
	d.Program(0, 2, nil)
	d.Invalidate(1)
	if _, n := blockWear(d, 0); n != 2 {
		t.Fatalf("valid pages = %d, want 2", n)
	}
}

// blockWear reads block b's erase count and valid-page count through
// ChannelWear.
func blockWear(d *Device, b BlockID) (erases, valid int) {
	n := d.Geometry().BlocksPerChannel()
	e, v := make([]int32, n), make([]int32, n)
	d.ChannelWear(int(int64(b)/n), e, v)
	return int(e[int64(b)%n]), int(v[int64(b)%n])
}

// TestChannelWearMatchesPageStates pins ChannelWear's counts against an
// independent model: after random program / invalidate / erase churn and
// a Reset, every block's valid count equals its PageValid pages (counted
// through State) and its erase count equals the erases the test issued.
func TestChannelWearMatchesPageStates(t *testing.T) {
	d := testDevice(t)
	geo := d.Geometry()
	rng := sim.NewRNG(11)
	erases := make([]int, geo.TotalBlocks())
	check := func(when string) {
		t.Helper()
		n := geo.BlocksPerChannel()
		e, v := make([]int32, n), make([]int32, n)
		for ch := 0; ch < geo.Channels; ch++ {
			d.ChannelWear(ch, e, v)
			for i := int64(0); i < n; i++ {
				b := BlockID(int64(ch)*n + i)
				valid := 0
				for p := geo.FirstPage(b); p < geo.FirstPage(b)+PPA(geo.PagesPerBlock); p++ {
					if d.State(p) == PageValid {
						valid++
					}
				}
				if int(v[i]) != valid || int(e[i]) != erases[b] {
					t.Fatalf("%s: block %d wear (erases %d, valid %d), want (%d, %d)",
						when, b, e[i], v[i], erases[b], valid)
				}
			}
		}
	}
	// Churn the first blocks of every channel so each channel's counts move.
	span := int64(4 * geo.PagesPerBlock)
	for i := 0; i < 4000; i++ {
		ch := rng.Intn(geo.Channels)
		p := PPA(int64(ch)*geo.PagesPerChannel() + int64(rng.Intn(int(span))))
		switch d.State(p) {
		case PageFree:
			if _, err := d.Program(0, p, nil); err != nil {
				t.Fatal(err)
			}
		case PageValid:
			if err := d.Invalidate(p); err != nil {
				t.Fatal(err)
			}
		case PageInvalid:
			b := geo.BlockOf(p)
			first := geo.FirstPage(b)
			for q := first; q < first+PPA(geo.PagesPerBlock); q++ {
				if d.State(q) == PageValid {
					if err := d.Invalidate(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := d.Erase(0, b); err != nil {
				t.Fatal(err)
			}
			erases[b]++
		}
	}
	check("after churn")
	d.Reset()
	clear(erases)
	check("after Reset")
}

func TestOversizedPayloadRejected(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(0, 0, make([]byte, 4097)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestOutOfRangePPARejected(t *testing.T) {
	d := testDevice(t)
	bad := PPA(d.Geometry().TotalPages())
	if _, _, err := d.Read(0, bad); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := d.Program(0, bad, nil); err == nil {
		t.Fatal("out-of-range program accepted")
	}
	if err := d.Invalidate(bad); err == nil {
		t.Fatal("out-of-range invalidate accepted")
	}
	if _, err := d.Erase(0, BlockID(d.Geometry().TotalBlocks())); err == nil {
		t.Fatal("out-of-range erase accepted")
	}
}

func TestInternalBandwidth(t *testing.T) {
	d := testDevice(t)
	want := 8 * 600.0 * (1 << 20)
	if got := d.InternalBandwidth(); got != want {
		t.Fatalf("internal bandwidth = %v, want %v", got, want)
	}
}

// TestSnapshotRaceWithPrograms pins Snapshot as the one method safe
// beside the device's owner: one owner goroutine programs every channel
// while a second goroutine keeps reading Snapshot. Run under -race this
// catches any stats counter that is not atomic.
func TestSnapshotRaceWithPrograms(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	const programsPerChannel = 64
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each counter is individually atomic; relations between
			// them hold only at quiescence, checked below.
			_ = d.Snapshot()
		}
	}()
	var err error
	for i := 0; i < programsPerChannel && err == nil; i++ {
		for ch := 0; ch < g.Channels && err == nil; ch++ {
			_, err = d.Program(0, PPA(int64(ch)*g.PagesPerChannel()+int64(i)), []byte{byte(i)})
		}
	}
	close(stop)
	reader.Wait()
	if err != nil {
		t.Fatal(err)
	}

	s := d.Snapshot()
	want := int64(g.Channels * programsPerChannel)
	if s.Programs != want || s.BytesWritten != want*int64(g.PageSize) {
		t.Fatalf("snapshot after quiescence = %+v, want %d programs", s, want)
	}
}
