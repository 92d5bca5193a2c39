package trivium

import (
	"bytes"
	"testing"
)

// FuzzKeystreamRoundTrip checks, for arbitrary key/IV/payload, that
// encrypt-then-decrypt is the identity, that two ciphers initialized
// identically emit the same keystream (the property the flash-side and
// DRAM-side engine halves rely on), and that the word-parallel Cipher is
// keystream-identical to the bit-serial Reference. Seeds live in
// testdata/fuzz as the regression corpus.
func FuzzKeystreamRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789"), []byte("abcdefghij"), []byte("in-storage page payload"))
	f.Add([]byte("iceclave-k"), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, KeySize), bytes.Repeat([]byte{0xAA}, IVSize),
		bytes.Repeat([]byte{0x00}, 128))
	f.Fuzz(func(t *testing.T, key, iv, data []byte) {
		if len(key) != KeySize || len(iv) != IVSize {
			t.Skip("trivium parameters are exactly 10 bytes")
		}
		enc := New(key, iv)
		ct := make([]byte, len(data))
		enc.XORKeyStream(ct, data)

		dec := New(key, iv)
		pt := make([]byte, len(ct))
		dec.XORKeyStream(pt, ct)
		if !bytes.Equal(pt, data) {
			t.Fatalf("round trip lost data: %x -> %x", data, pt)
		}

		// Keystream determinism: a reset cipher replays the same stream.
		a, b := New(key, iv), New(key, iv)
		for i := 0; i < 16; i++ {
			if a.KeystreamByte() != b.KeystreamByte() {
				t.Fatalf("identical ciphers diverged at byte %d", i)
			}
		}

		// Differential: the word-parallel engine against the bit-serial
		// reference, over the payload length plus a batch boundary.
		n := len(data) + 72
		want := make([]byte, n)
		NewReference(key, iv).Keystream(want)
		got := make([]byte, n)
		New(key, iv).Keystream(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("word64 diverged from bit-serial reference:\nword: %x\nref:  %x", got, want)
		}
	})
}

// FuzzEnginePageRoundTrip drives the flash-controller engine with
// arbitrary PPAs, IV bases, and page contents: DecryptPage must invert
// EncryptPage, the PPA-bound IV must differ across pages, and the
// one-pass EncryptPageTo of the payload into a longer page must equal the
// bit-serial Reference's encryption of the zero-extended page under the
// same IV.
func FuzzEnginePageRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0x1CEC1A7E0001), []byte("page zero"))
	f.Add(uint32(0xFFFFFFFF), uint64(0), []byte{0x00, 0xFF, 0x55})
	f.Add(uint32(4096), uint64(1)<<47, bytes.Repeat([]byte{0x5A}, 256))
	f.Fuzz(func(t *testing.T, ppa uint32, ivBase uint64, data []byte) {
		e := NewEngine([]byte("iceclave-k"), ivBase)
		page := append([]byte(nil), data...)
		e.EncryptPage(ppa, page)
		e.DecryptPage(ppa, page)
		if !bytes.Equal(page, data) {
			t.Fatalf("page round trip lost data at PPA %d", ppa)
		}
		// Spatial uniqueness: the IV embeds the PPA, so a neighbouring
		// page must get a different IV (and hence keystream).
		if e.IVFor(ppa) == e.IVFor(ppa+1) {
			t.Fatalf("IV collision between PPA %d and %d", ppa, ppa+1)
		}
		// One pass into a page 0-63 bytes longer than the payload, its
		// start at an unaligned offset.
		bus := make([]byte, len(data)+int(ppa%64)+1)[1:]
		e.EncryptPageTo(ppa, bus, data)
		padded := make([]byte, len(bus))
		copy(padded, data)
		iv := e.IVFor(ppa)
		want := make([]byte, len(bus))
		NewReference([]byte("iceclave-k"), iv[:]).XORKeyStream(want, padded)
		if !bytes.Equal(bus, want) {
			t.Fatalf("EncryptPageTo at PPA %d diverged from the bit-serial encryption of the zero-extended page", ppa)
		}
	})
}
