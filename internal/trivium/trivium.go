// Package trivium implements the Trivium stream cipher (De Cannière &
// Preneel, eSTREAM portfolio) and the IceClave flash-controller stream
// cipher engine built on it.
//
// IceClave places a Trivium-based engine between the flash controllers and
// the SSD DRAM (paper §5, Figure 10): every flash page read into controller
// memory is encrypted on the internal bus, so a bus-snooping adversary sees
// only ciphertext. The 80-bit IV is the concatenation of a 48-bit
// pseudo-random base (temporal uniqueness) and the 32-bit physical page
// address (spatial uniqueness).
//
// Two implementations of the same keystream live here:
//
//   - Cipher is the production engine: 64-bit word-parallel, producing 64
//     keystream bits per state update — the software analogue of the
//     64-bits-per-cycle hardware pipeline the paper describes. Trivium's
//     tap positions were chosen by its designers so that up to 64
//     consecutive clocks never feed a batch-computed bit back into a tap,
//     which is exactly the property the word engine exploits. Its
//     registers are stored mirrored (newest bit lowest), so each batch
//     stored big-endian is the MSB-first keystream with no bit reversal.
//   - Reference is the spec-literal bit-at-a-time network, kept as the
//     differential oracle the word engine is tested against.
//
// Concurrency contract: Cipher and Reference carry mutable keystream state
// and are not safe for concurrent use — each page operation keys its own.
// Engine is safe for concurrent use (immutable key, atomic IV base).
package trivium

import (
	"encoding/binary"
	"math/bits"
)

// KeySize and IVSize are the Trivium parameter sizes in bytes (80 bits).
const (
	KeySize = 10
	IVSize  = 10
)

// warmupRounds is the number of state-update rounds performed before any
// keystream is produced: four full cycles of the 288-bit state.
const warmupRounds = 4 * 288

// warmupBatches is the warm-up expressed in 64-bit word steps (1152/64).
const warmupBatches = warmupRounds / 64

// Cipher is a keyed, IV-initialized Trivium keystream generator that
// produces 64 keystream bits per state update.
//
// Representation: instead of shifting a 288-bit state one position per
// output bit, each of the three registers (A: 93 bits, B: 84 bits, C: 111
// bits) is stored as the last 128 bits of its feedback stream in two
// uint64 words, mirrored: bit i of w1 is register position i+1 (bit 0 is
// the bit inserted most recently) and bit i of w0 is position i+65, so the
// pair read as one 128-bit number (w0 high) has position p at bit p-1.
// Every tap is then a 64-bit window extraction whose bit 63 is what the
// tap reads at a batch's first clock, one state update emits 64 keystream
// bits with the first in bit 63, and a big-endian store of the batch is
// already the MSB-first byte stream: no bit reversal on the output path.
// The smallest tap position is s66 (66 > 64), so none of the 64 bits
// computed in a batch is an input to that same batch — the parallelization
// headroom Trivium's designers built into the tap layout.
//
// Cipher is keystream-identical to Reference (differentially tested over
// the committed fuzz corpus plus random inputs) and ~2 orders of magnitude
// faster; see TestCipherSpeedupFloor.
//
// Cipher is not safe for concurrent use; each simulated engine owns one.
type Cipher struct {
	// Per register, mirrored: w1 holds positions 1..64 and w0 positions
	// 65..128, each with the lower position in the lower bit.
	a0, a1 uint64 // register A (93 bits of history used)
	b0, b1 uint64 // register B (84 bits)
	c0, c1 uint64 // register C (111 bits)

	// buf holds keystream bytes generated by the last 64-bit batch that
	// have not been consumed yet; pos indexes the next unread byte.
	buf [8]byte
	pos int
}

// New returns a Cipher initialized with the given 80-bit key and IV. It
// panics if either slice is not exactly 10 bytes: key sizing is a
// programming error, not a runtime condition.
func New(key, iv []byte) *Cipher {
	if len(key) != KeySize || len(iv) != IVSize {
		panic("trivium: key and IV must be 10 bytes")
	}
	c := new(Cipher)
	c.Reset(key, iv)
	return c
}

// Reset re-initializes the cipher with a new key and IV, performing the
// 1152-round warm-up (18 word batches). The spec loads key bit i
// (MSB-first) at s(i+1), position i+1 of register A, IV bit i at s(94+i),
// position i+1 of register B, and sets the last three C bits. In the
// mirrored layout position i+1 is bit i of w1 and position 65+i bit i of
// w0, so the first 8 key/IV bytes load into w1 and the last 2 into the
// bottom of w0, each bit-reversed once here: loading is the only place
// the bit order flips.
func (c *Cipher) Reset(key, iv []byte) {
	if len(key) != KeySize || len(iv) != IVSize {
		panic("trivium: key and IV must be 10 bytes")
	}
	c.a1 = bits.Reverse64(binary.BigEndian.Uint64(key[0:8]))
	c.a0 = uint64(bits.Reverse16(binary.BigEndian.Uint16(key[8:10])))
	c.b1 = bits.Reverse64(binary.BigEndian.Uint64(iv[0:8]))
	c.b0 = uint64(bits.Reverse16(binary.BigEndian.Uint16(iv[8:10])))
	c.c1 = 0
	c.c0 = 7 << 44 // positions 109, 110, 111 of register C set to one
	var discard [warmupBatches * 8]byte
	c.stream(discard[:], nil)
	c.pos = len(c.buf)
}

// tap extracts the 64-bit window of register position p (65 <= p <= 127)
// from a mirrored register: bit m is the bit at position p-63+m when the
// batch started, so bit 63-k is the value tap p reads at clock k of the
// batch.
func tap(w0, w1 uint64, p uint) uint64 {
	s := p - 64
	return w1>>s | w0<<(64-s)
}

// stream runs len(dst)/8 state-update batches and stores each batch's 64
// keystream bits big-endian into the next 8 bytes of dst, XORed with the
// same 8 bytes of src when src is non-nil (src then has dst's length).
// The warm-up, Keystream and XORKeyStream all run this one loop, which
// keeps the six state words in locals and writes them back once. The tap
// positions are the spec's s-indices mapped into registers: A = s1..s93,
// B = s94..s177, C = s178..s288; the terms are grouped as in the spec
// (and Reference.clock), which keeps few temporaries live.
func (c *Cipher) stream(dst, src []byte) {
	a0, a1, b0, b1, c0, c1 := c.a0, c.a1, c.b0, c.b1, c.c0, c.c1
	for len(dst) >= 8 {
		t1 := tap(a0, a1, 66) ^ tap(a0, a1, 93)
		t2 := tap(b0, b1, 69) ^ tap(b0, b1, 84)
		t3 := tap(c0, c1, 66) ^ tap(c0, c1, 111)
		z := t1 ^ t2 ^ t3
		t1 ^= tap(a0, a1, 91)&tap(a0, a1, 92) ^ tap(b0, b1, 78)
		t2 ^= tap(b0, b1, 82)&tap(b0, b1, 83) ^ tap(c0, c1, 87)
		t3 ^= tap(c0, c1, 109)&tap(c0, c1, 110) ^ tap(a0, a1, 69)
		a0, a1 = a1, t3
		b0, b1 = b1, t1
		c0, c1 = c1, t2
		if src != nil {
			z ^= binary.BigEndian.Uint64(src)
			src = src[8:]
		}
		binary.BigEndian.PutUint64(dst, z)
		dst = dst[8:]
	}
	c.a0, c.a1, c.b0, c.b1, c.c0, c.c1 = a0, a1, b0, b1, c0, c1
}

// refill generates the next batch into the byte buffer.
func (c *Cipher) refill() {
	c.stream(c.buf[:], nil)
	c.pos = 0
}

// KeystreamByte produces the next 8 keystream bits packed MSB-first.
func (c *Cipher) KeystreamByte() byte {
	if c.pos == len(c.buf) {
		c.refill()
	}
	b := c.buf[c.pos]
	c.pos++
	return b
}

// Keystream fills dst with keystream bytes. Aligned 8-byte runs are
// produced a whole 64-bit batch at a time, which is what makes page-sized
// bulk generation fast.
func (c *Cipher) Keystream(dst []byte) {
	// Drain any partially consumed batch first.
	for len(dst) > 0 && c.pos < len(c.buf) {
		dst[0] = c.buf[c.pos]
		c.pos++
		dst = dst[1:]
	}
	whole := len(dst) &^ 7
	c.stream(dst[:whole], nil)
	if tail := dst[whole:]; len(tail) > 0 {
		c.refill()
		c.pos = copy(tail, c.buf[:])
	}
}

// XORKeyStream sets dst = src XOR keystream. dst and src may be the same
// slice; it panics if dst is shorter than src, matching crypto/cipher
// conventions.
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("trivium: output smaller than input")
	}
	for len(src) > 0 && c.pos < len(c.buf) {
		dst[0] = src[0] ^ c.buf[c.pos]
		c.pos++
		dst = dst[1:]
		src = src[1:]
	}
	whole := len(src) &^ 7
	c.stream(dst[:whole], src[:whole])
	if tail := src[whole:]; len(tail) > 0 {
		c.refill()
		for i, v := range tail {
			dst[whole+i] = v ^ c.buf[i]
		}
		c.pos = len(tail)
	}
}
