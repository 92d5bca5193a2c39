package ftl

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

func smallGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:        2,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  16,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
}

func newTestFTL(t *testing.T) *FTL {
	t.Helper()
	dev, err := flash.NewDevice(smallGeometry(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return New(dev)
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newTestFTL(t)
	data := make([]byte, 4096)
	copy(data, "hello flash")
	done, err := f.Write(0, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := f.Read(done, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) != "hello flash" {
		t.Fatalf("read back %q", got[:11])
	}
}

func TestUnmappedRead(t *testing.T) {
	f := newTestFTL(t)
	if _, _, err := f.Read(0, 0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestRewriteInvalidatesOldPage(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 3, []byte("v1"))
	p1, _ := f.Translate(3)
	f.Write(0, 3, []byte("v2"))
	p2, _ := f.Translate(3)
	if p1 == p2 {
		t.Fatal("rewrite did not move the page (out-of-place violated)")
	}
	if f.Device().State(p1) != flash.PageInvalid {
		t.Fatal("old page not invalidated")
	}
	_, got, err := f.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:2]) != "v2" {
		t.Fatalf("read back %q, want v2", got[:2])
	}
}

func TestIDBitsEnforced(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 5, nil)
	if err := f.ClaimID(5, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TranslateFor(5, 3); err != nil {
		t.Fatalf("owner denied: %v", err)
	}
	if _, err := f.TranslateFor(5, 4); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("non-owner allowed: %v", err)
	}
	if _, err := f.TranslateFor(5, IDNone); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unowned caller allowed: %v", err)
	}
}

func TestIDSurvivesRewriteAndGC(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 2, nil)
	f.ClaimID(2, 7)
	f.Write(0, 2, nil) // rewrite
	if id, _ := f.IDOf(2); id != 7 {
		t.Fatalf("ID after rewrite = %d, want 7", id)
	}
}

// TestReleaseIDs pins ReleaseIDs' contract: a listed entry still carrying
// the released ID clears, mapped or not; a listed entry another TEE has
// since re-stamped keeps its new owner; an unlisted entry keeps the ID
// even though it carries it; out-of-range LPAs are skipped.
func TestReleaseIDs(t *testing.T) {
	f := newTestFTL(t)
	for _, l := range []LPA{1, 3, 5, 7} {
		if _, err := f.Write(0, l, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []LPA{1, 3, 5, 7, 9} { // LPA 9 is never written
		if err := f.ClaimID(l, 5); err != nil {
			t.Fatal(err)
		}
	}
	f.table[3].id = 6 // re-stamped to another TEE
	f.ReleaseIDs(5, []LPA{1, 3, 9, LPA(f.LogicalPages()), 7, 7})
	want := map[LPA]TEEID{1: IDNone, 3: 6, 5: 5, 7: IDNone, 9: IDNone}
	for l, id := range want {
		if got, _ := f.IDOf(l); got != id {
			t.Fatalf("LPA %d ID = %d after release, want %d", l, got, id)
		}
	}
	if _, err := f.Translate(7); err != nil {
		t.Fatalf("LPA 7 after the release: %v", err)
	}
}

// TestReleaseIDsVisitsOnlyListed pins teardown's cost: ReleaseIDs visits
// exactly the listed entries, on a small device and on one with 16x the
// logical pages alike, never the whole table. It counts visits through
// the hook instead of timing them.
func TestReleaseIDsVisitsOnlyListed(t *testing.T) {
	visits := 0
	releaseHook = func(LPA) { visits++ }
	defer func() { releaseHook = nil }()
	big := smallGeometry()
	big.BlocksPerPlane *= 16
	for _, geo := range []flash.Geometry{smallGeometry(), big} {
		dev, err := flash.NewDevice(geo, flash.DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		f := New(dev)
		lpas := []LPA{0, 2, 5, 11, 40}
		for _, l := range lpas {
			if err := f.ClaimID(l, 4); err != nil {
				t.Fatal(err)
			}
		}
		visits = 0
		f.ReleaseIDs(4, lpas)
		if visits != len(lpas) {
			t.Fatalf("%d logical pages: ReleaseIDs visited %d entries for %d listed", f.LogicalPages(), visits, len(lpas))
		}
	}
}

func TestSetIDValidation(t *testing.T) {
	f := newTestFTL(t)
	if err := f.ClaimID(0, 16); err == nil {
		t.Fatal("5-bit ID accepted")
	}
	if err := f.ClaimID(LPA(f.LogicalPages()), 1); err == nil {
		t.Fatal("out-of-range LPA accepted")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f := newTestFTL(t)
	// Hammer a small set of LPAs far beyond one block's worth of pages so
	// GC must run.
	var at sim.Time
	for i := 0; i < 500; i++ {
		l := LPA(i % 4)
		done, err := f.Write(at, l, nil)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	if f.Stats().Erases == 0 {
		t.Fatal("GC never erased")
	}
}

func TestReadYourWritesUnderGCProperty(t *testing.T) {
	// Property: for any random write workload (heavy overwrites forcing
	// GC), every LPA reads back the last value written to it.
	f := func(seed uint64) bool {
		dev, err := flash.NewDevice(smallGeometry(), flash.DefaultTiming())
		if err != nil {
			return false
		}
		fl := New(dev)
		rng := sim.NewRNG(seed)
		const lpas = 24
		shadow := make(map[LPA]uint64)
		var at sim.Time
		for i := 0; i < 400; i++ {
			l := LPA(rng.Intn(lpas))
			v := rng.Uint64()
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint64(buf, v)
			done, err := fl.Write(at, l, buf)
			if err != nil {
				return false
			}
			at = done
			shadow[l] = v
			// Occasionally verify a random written LPA mid-stream.
			if i%17 == 0 {
				for probe, want := range shadow {
					_, got, err := fl.Read(at, probe)
					if err != nil || binary.LittleEndian.Uint64(got) != want {
						return false
					}
					break
				}
			}
		}
		for l, want := range shadow {
			_, got, err := fl.Read(at, l)
			if err != nil || binary.LittleEndian.Uint64(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestWearLevelingBoundsSpread(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	for i := 0; i < 3000; i++ {
		done, err := f.Write(at, LPA(i%8), nil)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	// With wear-aware allocation the spread should stay well below the
	// total erase count of the hottest blocks.
	if spread := f.MaxEraseSpread(); spread > 40 {
		t.Fatalf("erase-count spread = %d, wear leveling ineffective", spread)
	}
}

func TestWriteAmplificationReported(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	for i := 0; i < 600; i++ {
		done, err := f.Write(at, LPA(i%6), nil)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	wa := f.Stats().WriteAmplification()
	if wa < 1.0 {
		t.Fatalf("write amplification = %v, must be >= 1", wa)
	}
}

func TestDeviceFillsToLogicalCapacity(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	for l := LPA(0); int64(l) < f.LogicalPages(); l++ {
		done, err := f.Write(at, l, nil)
		if err != nil {
			t.Fatalf("write of LPA %d within logical capacity failed: %v", l, err)
		}
		at = done
	}
	// All logical pages written once: every LPA still readable.
	for l := LPA(0); int64(l) < f.LogicalPages(); l += 13 {
		if _, err := f.Translate(l); err != nil {
			t.Fatalf("translate %d: %v", l, err)
		}
	}
}

func TestOverProvisionReservesSpace(t *testing.T) {
	f := newTestFTL(t)
	geo := smallGeometry()
	if f.LogicalPages() >= geo.TotalPages() {
		t.Fatal("no over-provisioning reserved")
	}
}
