package flash

import (
	"bytes"
	"fmt"
	"testing"

	"iceclave/internal/sim"
)

// churnDevice programs, invalidates, and erases across several blocks,
// leaving a with dirty page states, nonzero erase counts, payloads, and
// busy servers.
func churnDevice(t *testing.T, d *Device) {
	t.Helper()
	geo := d.Geometry()
	payload := bytes.Repeat([]byte{0xA5}, geo.PageSize)
	var at sim.Time
	for b := BlockID(0); b < 6; b++ {
		first := geo.FirstPage(b)
		for p := 0; p < geo.PagesPerBlock; p++ {
			done, err := d.Program(at, first+PPA(p), payload)
			if err != nil {
				t.Fatal(err)
			}
			at = done
		}
	}
	// Invalidate block 2 entirely and erase it twice (erase count > 1).
	for round := 0; round < 2; round++ {
		first := geo.FirstPage(2)
		for p := 0; p < geo.PagesPerBlock; p++ {
			if err := d.Invalidate(first + PPA(p)); err != nil {
				t.Fatal(err)
			}
		}
		done, err := d.Erase(at, 2)
		if err != nil {
			t.Fatal(err)
		}
		at = done
		if round == 0 {
			for p := 0; p < geo.PagesPerBlock; p++ {
				done, err := d.Program(at, first+PPA(p), nil)
				if err != nil {
					t.Fatal(err)
				}
				at = done
			}
		}
	}
}

// TestDeviceResetEquivalentToFresh pins the full Reset contract: after
// churn (programs with payloads, invalidations, double erases) and a
// Reset, the device must be indistinguishable from a new one — identical
// page states, erase counts, payload reads, operation timings, and stats
// under an identical operation sequence.
func TestDeviceResetEquivalentToFresh(t *testing.T) {
	a := testDevice(t)
	churnDevice(t, a)
	a.Reset()

	if s := a.Snapshot(); s != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", s)
	}
	geo := a.Geometry()
	for p := int64(0); p < geo.TotalPages(); p += 17 {
		if st := a.State(PPA(p)); st != PageFree {
			t.Fatalf("page %d state %d after Reset", p, st)
		}
	}
	for b := int64(0); b < geo.TotalBlocks(); b++ {
		if e, _ := blockWear(a, BlockID(b)); e != 0 {
			t.Fatalf("block %d erase count %d after Reset", b, e)
		}
	}

	b := testDevice(t)
	drive := func(d *Device) string {
		var log bytes.Buffer
		payload := bytes.Repeat([]byte{0x3C}, geo.PageSize)
		var at sim.Time
		for blk := BlockID(0); blk < 4; blk++ {
			first := geo.FirstPage(blk)
			for p := 0; p < geo.PagesPerBlock; p++ {
				done, err := d.Program(at, first+PPA(p), payload)
				if err != nil {
					t.Fatal(err)
				}
				at = done
				fmt.Fprintf(&log, "prog %d %d\n", first+PPA(p), done)
			}
		}
		first := geo.FirstPage(1)
		for p := 0; p < geo.PagesPerBlock; p++ {
			done, data, err := d.Read(at, first+PPA(p))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, payload) {
				t.Fatalf("page %d read back wrong payload", first+PPA(p))
			}
			fmt.Fprintf(&log, "read %d %d\n", first+PPA(p), done)
			if err := d.Invalidate(first + PPA(p)); err != nil {
				t.Fatal(err)
			}
		}
		done, err := d.Erase(at, 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&log, "erase 1 %d\n", done)
		fmt.Fprintf(&log, "stats %+v\n", d.Snapshot())
		return log.String()
	}
	if got, want := drive(a), drive(b); got != want {
		t.Fatalf("reset device diverges from fresh:\nreset:\n%s\nfresh:\n%s", got, want)
	}
}

// TestDeviceResetRepeatable pins that back-to-back reuse keeps working:
// several churn/Reset cycles, each indistinguishable from the first.
func TestDeviceResetRepeatable(t *testing.T) {
	d := testDevice(t)
	var want Stats
	for round := 0; round < 3; round++ {
		churnDevice(t, d)
		if round == 0 {
			want = d.Snapshot()
		} else if got := d.Snapshot(); got != want {
			t.Fatalf("round %d stats %+v, want %+v", round, got, want)
		}
		d.Reset()
	}
}
