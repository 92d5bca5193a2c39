package tee

import (
	"bytes"
	"errors"
	"testing"

	"iceclave/internal/flash"
	"iceclave/internal/ftl"
)

func testRuntime(t *testing.T) (*Runtime, *ftl.FTL) {
	t.Helper()
	geo := flash.Geometry{
		Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 32, PagesPerBlock: 16, PageSize: 4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := ftl.New(dev)
	rt, err := NewRuntime(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rt, f
}

// writePages stores payloads at LPAs 0..n-1 through the host path.
func writePages(t *testing.T, f *ftl.FTL, n int, fill byte) []ftl.LPA {
	t.Helper()
	lpas := make([]ftl.LPA, n)
	for i := range lpas {
		lpas[i] = ftl.LPA(i)
		data := bytes.Repeat([]byte{fill + byte(i)}, 128)
		if _, err := f.Write(0, lpas[i], data); err != nil {
			t.Fatal(err)
		}
	}
	return lpas
}

func TestCreateReadTerminate(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 4, 0x10)
	tee, err := rt.CreateTEE(Config{Binary: make([]byte, 64<<10), LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	if tee.State() != StateRunning {
		t.Fatalf("state = %v", tee.State())
	}
	page, err := rt.ReadPage(tee, 2)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 0x12 {
		t.Fatalf("page content = %#x", page[0])
	}
	if err := rt.TerminateTEE(tee, []byte("done")); err != nil {
		t.Fatal(err)
	}
	if string(tee.Result()) != "done" {
		t.Fatal("result not preserved")
	}
	if id, _ := f.IDOf(2); id != ftl.IDNone {
		t.Fatal("ID bits not cleared at termination")
	}
}

func TestCrossTEEAccessAborts(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 8, 0x20)
	victim, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[:4]})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[4:]})
	if err != nil {
		t.Fatal(err)
	}
	// Attacker probes the victim's mapping entries.
	if _, err := rt.ReadPage(attacker, lpas[0]); !errors.Is(err, ftl.ErrAccessDenied) {
		t.Fatalf("cross-TEE read returned %v", err)
	}
	if attacker.State() != StateAborted {
		t.Fatalf("attacker state = %v, want aborted", attacker.State())
	}
	// The victim is unaffected.
	if _, err := rt.ReadPage(victim, lpas[0]); err != nil {
		t.Fatalf("victim read failed after attack: %v", err)
	}
	// The aborted TEE can no longer do anything.
	if _, err := rt.ReadPage(attacker, lpas[4]); !errors.Is(err, ErrAborted) {
		t.Fatalf("aborted TEE still served: %v", err)
	}
	if rt.Stats().Aborted != 1 {
		t.Fatalf("aborted count = %d", rt.Stats().Aborted)
	}
}

func TestCrossTEEWriteAborts(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 4, 0x30)
	rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[:2]}) // victim owns 0,1
	attacker, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[2:]})
	if err := rt.WritePage(attacker, lpas[0], []byte("overwrite")); !errors.Is(err, ftl.ErrAccessDenied) {
		t.Fatalf("cross-TEE write returned %v", err)
	}
	if attacker.State() != StateAborted {
		t.Fatal("attacker not aborted")
	}
	// Victim data intact.
	_, data, err := f.Read(rt.Now(), lpas[0])
	if err != nil || data[0] != 0x30 {
		t.Fatalf("victim data corrupted: %v %#x", err, data[0])
	}
}

func TestIDReuseAfterTermination(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 2, 0x40)
	var ids []ftl.TEEID
	// Exhaust all 15 IDs.
	for i := 0; i < 15; i++ {
		tee, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[:1], HeapBytes: 1 << 20})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids = append(ids, tee.EID())
		if i < 14 {
			rt.TerminateTEE(tee, nil)
		}
	}
	// IDs are reused: with termination between creations, the same low ID
	// comes back.
	if ids[0] != ids[1] {
		t.Fatalf("ID not reused: %v then %v", ids[0], ids[1])
	}
}

func TestIDExhaustion(t *testing.T) {
	rt, f := testRuntime(t)
	// One LPA per TEE: 15 live TEEs may not share pages under the
	// ownership-aware creation rules.
	lpas := writePages(t, f, 16, 0x50)
	for i := 0; i < 15; i++ {
		if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[i : i+1], HeapBytes: 1 << 20}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[15:], HeapBytes: 1 << 20}); !errors.Is(err, ErrNoFreeID) {
		t.Fatalf("16th TEE returned %v", err)
	}
}

// TestCreateRejectsOwnedLPA pins the ownership-aware SetIDBits decision:
// creating a TEE over an LPA a live TEE owns fails with ErrLPAOwned, the
// prior owner's bits survive, and the rejected creation rolls back fully
// (its ID and heap are reusable, and its other stamps are cleared).
func TestCreateRejectsOwnedLPA(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 3, 0x80)
	owner, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[:1]})
	if err != nil {
		t.Fatal(err)
	}
	live := rt.Live()
	// lpas[1] is free, lpas[0] is owned: the creation must fail and must
	// not leave a stamp on lpas[1].
	if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[1:3]}); err != nil {
		t.Fatalf("disjoint creation failed: %v", err)
	}
	if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: []ftl.LPA{lpas[0]}}); !errors.Is(err, ErrLPAOwned) {
		t.Fatalf("creation over owned LPA returned %v, want ErrLPAOwned", err)
	}
	if id, _ := f.IDOf(lpas[0]); id != owner.EID() {
		t.Fatalf("owner's ID bits disturbed: %d", id)
	}
	if rt.Live() != live+1 {
		t.Fatalf("live TEEs = %d after rejected creation, want %d", rt.Live(), live+1)
	}
	// After the owner terminates, the same LPA is claimable again.
	if err := rt.TerminateTEE(owner, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[:1]}); err != nil {
		t.Fatalf("creation after owner terminated: %v", err)
	}
}

// TestCreateRejectionRollsBackStamps pins the partial-stamp rollback: a
// creation that dies on its Nth LPA must clear the N-1 entries it already
// stamped.
func TestCreateRejectionRollsBackStamps(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 3, 0x90)
	if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas[2:3]}); err != nil {
		t.Fatal(err)
	}
	// lpas[0] and lpas[1] are free; lpas[2] is owned — stamped in order,
	// the failure happens after two successful claims.
	if _, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas}); !errors.Is(err, ErrLPAOwned) {
		t.Fatalf("creation returned %v, want ErrLPAOwned", err)
	}
	for _, l := range lpas[:2] {
		if id, _ := f.IDOf(l); id != ftl.IDNone {
			t.Fatalf("LPA %d still stamped with %d after rollback", l, id)
		}
	}
}

func TestOversizedBinaryRejected(t *testing.T) {
	_, f := testRuntime(t)
	// A 1 MB TEE-heap region keeps the oversized image small.
	rt, err := NewRuntime(f, Options{DRAMBytes: normalBase + 1<<20})
	if err != nil {
		t.Fatal(err)
	}
	lpas := writePages(t, f, 1, 0x60)
	_, err = rt.CreateTEE(Config{Binary: make([]byte, rt.HeapFree()+1), LPAs: lpas})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized binary returned %v", err)
	}
}

func TestCreationCostCharged(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 1, 0x70)
	before := rt.Now()
	tee, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	afterCreate := rt.Now()
	if afterCreate-before < rt.Costs().Create {
		t.Fatalf("creation charged %v, want >= %v", afterCreate-before, rt.Costs().Create)
	}
	rt.TerminateTEE(tee, nil)
	if rt.Now()-afterCreate < rt.Costs().Delete {
		t.Fatal("deletion cost not charged")
	}
}

func TestBusTransfersAreCiphertext(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 1, 0x77)
	tee, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	plain, err := rt.ReadPage(tee, lpas[0])
	if err != nil {
		t.Fatal(err)
	}
	bus := rt.LastBusTransfer()
	if bytes.Equal(bus, plain) {
		t.Fatal("bus snooper sees plaintext")
	}
	if len(bus) != len(plain) {
		t.Fatal("bus transfer size mismatch")
	}
	if plain[0] != 0x77 {
		t.Fatal("TEE did not receive plaintext")
	}
}

func TestCMTMissChargesWorldSwitch(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 8, 0x01)
	tee, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	rt.ReadPage(tee, lpas[0]) // cold CMT: miss
	hits0, misses0 := rt.CMTStats()
	if misses0 == 0 {
		t.Fatal("cold translation did not miss the CMT")
	}
	rt.ReadPage(tee, lpas[1]) // same mapping page: hit, no switch
	hits1, _ := rt.CMTStats()
	if hits1 <= hits0 {
		t.Fatal("warm translation did not hit the CMT")
	}
}

func TestSequentialScanCMTMissRateLow(t *testing.T) {
	rt, f := testRuntime(t)
	const n = 200
	lpas := writePages(t, f, n, 0x00)
	tee, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	for _, l := range lpas {
		if _, _, err := rt.ReadMappingEntry(tee, l); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := rt.CMTStats()
	missRate := float64(misses) / float64(hits+misses)
	// 512 entries per mapping page: a 200-page scan misses once.
	if missRate > 0.05 {
		t.Fatalf("sequential CMT miss rate = %v", missRate)
	}
}

func TestNormalWorldCannotWriteMappingTable(t *testing.T) {
	rt, _ := testRuntime(t)
	// The protected region hosts the mapping table: readable, not
	// writable, from the normal world.
	if err := rt.CheckMemoryAccess(protectedBase+0x100, 8, false); err != nil {
		t.Fatalf("normal-world read of mapping table rejected: %v", err)
	}
	if err := rt.CheckMemoryAccess(protectedBase+0x100, 8, true); err == nil {
		t.Fatal("normal-world write of mapping table allowed")
	}
	// The secure region (runtime + FTL code/data) is fully inaccessible.
	if err := rt.CheckMemoryAccess(secureBase+0x100, 8, false); err == nil {
		t.Fatal("normal-world read of secure region allowed")
	}
}

func TestWritePageAdoptsUnownedLPA(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 1, 0x01)
	tee, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	// LPA 10 was never written/owned: the TEE claims it for intermediate
	// output.
	if err := rt.WritePage(tee, 10, []byte("intermediate")); err != nil {
		t.Fatal(err)
	}
	if id, _ := f.IDOf(10); id != tee.EID() {
		t.Fatal("written LPA not stamped with TEE ID")
	}
	page, err := rt.ReadPage(tee, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(page[:12]) != "intermediate" {
		t.Fatalf("read back %q", page[:12])
	}
}

func TestTerminateTwiceFails(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 1, 0x01)
	tee, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	if err := rt.TerminateTEE(tee, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.TerminateTEE(tee, nil); err == nil {
		t.Fatal("double termination accepted")
	}
}

func TestThrowOutIdempotent(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 1, 0x01)
	tee, _ := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	rt.ThrowOutTEE(tee, "test exception")
	rt.ThrowOutTEE(tee, "again")
	if rt.Stats().Aborted != 1 {
		t.Fatalf("aborted = %d, want 1", rt.Stats().Aborted)
	}
	if tee.AbortReason() != "test exception" {
		t.Fatalf("abort reason %q", tee.AbortReason())
	}
}
