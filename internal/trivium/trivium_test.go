package trivium

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestSpecVector checks the first keystream bytes against the published
// eSTREAM reference output for the all-zero key and IV (set 6, vector 0 of
// the Trivium submission: keystream begins DF07FD641A9AA0D8...).
func TestSpecVector(t *testing.T) {
	key := make([]byte, KeySize)
	iv := make([]byte, IVSize)
	c := New(key, iv)
	got := make([]byte, 8)
	c.Keystream(got)
	want, _ := hex.DecodeString("df07fd641a9aa0d8")
	if !bytes.Equal(got, want) {
		t.Fatalf("keystream = %x, want %x", got, want)
	}
}

func TestRoundTrip(t *testing.T) {
	key := []byte("0123456789")
	iv := []byte("abcdefghij")
	msg := []byte("in-storage computing needs a TEE")
	ct := make([]byte, len(msg))
	New(key, iv).XORKeyStream(ct, msg)
	if bytes.Equal(ct, msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt := make([]byte, len(ct))
	New(key, iv).XORKeyStream(pt, ct)
	if !bytes.Equal(pt, msg) {
		t.Fatalf("round trip failed: %q", pt)
	}
}

func TestKeystreamDeterminism(t *testing.T) {
	key := []byte("kkkkkkkkkk")
	iv := []byte("vvvvvvvvvv")
	a, b := make([]byte, 256), make([]byte, 256)
	New(key, iv).Keystream(a)
	New(key, iv).Keystream(b)
	if !bytes.Equal(a, b) {
		t.Fatal("same key/IV produced different keystreams")
	}
}

func TestDifferentIVDifferentStream(t *testing.T) {
	key := []byte("kkkkkkkkkk")
	a, b := make([]byte, 64), make([]byte, 64)
	New(key, []byte("0000000000")).Keystream(a)
	New(key, []byte("0000000001")).Keystream(b)
	if bytes.Equal(a, b) {
		t.Fatal("different IVs produced identical keystreams")
	}
}

func TestDifferentKeyDifferentStream(t *testing.T) {
	iv := []byte("vvvvvvvvvv")
	a, b := make([]byte, 64), make([]byte, 64)
	New([]byte("0000000000"), iv).Keystream(a)
	New([]byte("1000000000"), iv).Keystream(b)
	if bytes.Equal(a, b) {
		t.Fatal("different keys produced identical keystreams")
	}
}

func TestResetMatchesNew(t *testing.T) {
	key := []byte("0123456789")
	iv := []byte("abcdefghij")
	c := New([]byte("zzzzzzzzzz"), []byte("yyyyyyyyyy"))
	c.Reset(key, iv)
	a, b := make([]byte, 32), make([]byte, 32)
	c.Keystream(a)
	New(key, iv).Keystream(b)
	if !bytes.Equal(a, b) {
		t.Fatal("Reset did not reproduce a fresh cipher")
	}
}

func TestSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short key did not panic")
		}
	}()
	New([]byte("short"), make([]byte, IVSize))
}

func TestRoundTripProperty(t *testing.T) {
	f := func(key, iv [10]byte, msg []byte) bool {
		ct := make([]byte, len(msg))
		New(key[:], iv[:]).XORKeyStream(ct, msg)
		pt := make([]byte, len(ct))
		New(key[:], iv[:]).XORKeyStream(pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCipherSpeedupFloor (bit-serial vs word-parallel per 4 KB page) lives
// in differential_test.go next to the equivalence tests.
