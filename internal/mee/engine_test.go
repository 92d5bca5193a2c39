package mee

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"iceclave/internal/sim"
)

func testEngine() *Engine {
	var aesKey [16]byte
	var macKey [32]byte
	copy(aesKey[:], "0123456789abcdef")
	copy(macKey[:], "mac-key-mac-key-mac-key-mac-key-")
	return NewEngine(aesKey, macKey)
}

func line(fill byte) []byte { return bytes.Repeat([]byte{fill}, LineSize) }

func TestWriteReadRoundTrip(t *testing.T) {
	e := testEngine()
	if err := e.Write(3, 5, line(0xAB)); err != nil {
		t.Fatal(err)
	}
	got, err := e.Read(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line(0xAB)) {
		t.Fatal("round trip failed")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	e := testEngine()
	e.Write(0, 0, line(0x00))
	ct := e.pages[0].lineCT(0)
	if bytes.Equal(ct, line(0x00)) {
		t.Fatal("memory stores plaintext")
	}
	// Zero plaintext means the ciphertext IS the pad; it must not be zero.
	if bytes.Equal(ct, line(0)) {
		t.Fatal("pad is zero")
	}
}

func TestSameDataDifferentLinesDifferentCiphertext(t *testing.T) {
	e := testEngine()
	e.Write(0, 0, line(0x77))
	e.Write(0, 1, line(0x77))
	e.Write(1, 0, line(0x77))
	ct00 := e.pages[0].lineCT(0)
	ct01 := e.pages[0].lineCT(1)
	ct10 := e.pages[1].lineCT(0)
	if bytes.Equal(ct00, ct01) || bytes.Equal(ct00, ct10) {
		t.Fatal("spatially distinct lines share ciphertext (pad reuse)")
	}
}

func TestRewriteChangesCiphertext(t *testing.T) {
	e := testEngine()
	e.Write(0, 0, line(0x42))
	ct1 := append([]byte(nil), e.pages[0].lineCT(0)...)
	e.Write(0, 0, line(0x42)) // same plaintext again
	ct2 := e.pages[0].lineCT(0)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("temporal pad reuse: rewrite of same data produced same ciphertext")
	}
}

func TestTamperDetected(t *testing.T) {
	e := testEngine()
	e.Write(2, 7, line(0x10))
	if err := e.TamperCiphertext(2, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(2, 7); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered read returned %v, want ErrIntegrity", err)
	}
}

func TestCounterTamperDetected(t *testing.T) {
	e := testEngine()
	e.Write(2, 0, line(0x10))
	e.pages[2].ctr.major ^= 1 // corrupt the DRAM-side counter copy
	if _, err := e.Read(2, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("counter-tampered read returned %v, want ErrIntegrity", err)
	}
}

func TestReplayDetected(t *testing.T) {
	e := testEngine()
	e.Write(0, 0, line(0x01))
	snap, err := e.Snapshot(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Write(0, 0, line(0x02)) // legitimate update
	// Adversary rolls ciphertext, MAC, AND the in-memory counters back.
	if err := e.Replay(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Read(0, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replayed read returned %v, want ErrIntegrity", err)
	}
}

func TestMinorOverflowReencryptsPage(t *testing.T) {
	e := testEngine()
	e.Write(0, 0, line(0x01))
	e.Write(0, 1, line(0x02))
	majorBefore := e.pages[0].ctr.major
	// Hammer line 0 past the 6-bit minor limit.
	for i := 0; i < MinorLimit+4; i++ {
		if err := e.Write(0, 0, line(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if e.pages[0].ctr.major <= majorBefore {
		t.Fatal("major counter did not advance on minor overflow")
	}
	// Untouched line 1 must still decrypt (it was re-encrypted).
	got, err := e.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line(0x02)) {
		t.Fatal("sibling line corrupted by re-encryption")
	}
	got, err = e.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line(byte(MinorLimit+3))) {
		t.Fatal("hammered line lost its last value")
	}
}

func TestValidationErrors(t *testing.T) {
	e := testEngine()
	if err := e.Write(0, LinesPerPage, line(0)); err == nil {
		t.Fatal("out-of-range line accepted")
	}
	if err := e.Write(0, 0, []byte("short")); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := e.Read(99, 0); err == nil {
		t.Fatal("read of unmapped page accepted")
	}
	e.Write(4, 0, line(0x04))
	if _, err := e.Read(4, 1); err == nil {
		t.Fatal("read of unwritten line accepted")
	}
}

func TestEngineRoundTripProperty(t *testing.T) {
	// Property: any interleaving of writes across pages/lines reads back
	// the last value written.
	f := func(seed uint64) bool {
		e := testEngine()
		rng := sim.NewRNG(seed)
		type key struct {
			page uint64
			line int
		}
		shadow := make(map[key]byte)
		for i := 0; i < 300; i++ {
			k := key{uint64(rng.Intn(4)), rng.Intn(LinesPerPage)}
			v := byte(rng.Uint32())
			if err := e.Write(k.page, k.line, line(v)); err != nil {
				return false
			}
			shadow[k] = v
		}
		for k, v := range shadow {
			got, err := e.Read(k.page, k.line)
			if err != nil || !bytes.Equal(got, line(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineWrite(b *testing.B) {
	e := testEngine()
	data := line(0x5A)
	b.SetBytes(LineSize)
	for i := 0; i < b.N; i++ {
		e.Write(uint64(i%64), i%LinesPerPage, data)
	}
}

func BenchmarkEngineRead(b *testing.B) {
	e := testEngine()
	data := line(0x5A)
	for p := uint64(0); p < 64; p++ {
		for l := 0; l < LinesPerPage; l++ {
			e.Write(p, l, data)
		}
	}
	b.SetBytes(LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Read(uint64(i%64), i%LinesPerPage); err != nil {
			b.Fatal(err)
		}
	}
}
