package ftl

import (
	"testing"

	"iceclave/internal/flash"
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
