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
//     which is exactly the property the word engine exploits.
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
// bits) is stored as the last 128 bits of its feedback stream, packed into
// two uint64 words oldest-first. Register position p (1 = the bit inserted
// most recently) of the spec state is stream bit T-p, so every tap becomes
// a 64-bit window extraction and one state update emits 64 keystream bits.
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
	// Per register: w0 holds stream bits T-128..T-65 and w1 holds
	// T-64..T-1, each packed with the oldest bit in bit 0.
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
// 1152-round warm-up (18 word batches). The spec loads key bit i at state
// position i+1, IV bit i at position 94+i, and sets the last three C bits;
// in stream coordinates (w1 bit j = position 64-j, w0 bit j = position
// 128-j) that is a big-endian load of the first 8 key/IV bytes into w1 and
// of the last 2 bytes into the top of w0.
func (c *Cipher) Reset(key, iv []byte) {
	if len(key) != KeySize || len(iv) != IVSize {
		panic("trivium: key and IV must be 10 bytes")
	}
	c.a1 = binary.BigEndian.Uint64(key[0:8])
	c.a0 = uint64(binary.BigEndian.Uint16(key[8:10])) << 48
	c.b1 = binary.BigEndian.Uint64(iv[0:8])
	c.b0 = uint64(binary.BigEndian.Uint16(iv[8:10])) << 48
	c.c1 = 0
	c.c0 = 7 << 17 // positions 109, 110, 111 of register C set to one
	for i := 0; i < warmupBatches; i++ {
		c.next64()
	}
	c.pos = len(c.buf)
}

// ext extracts the 64-bit tap window for register position p: result bit k
// is the bit at position p-k of the register when the batch started, i.e.
// the value tap p reads at clock k of the batch. Valid for 65 <= p <= 127.
func ext(w0, w1 uint64, p uint) uint64 {
	o := 128 - p
	return w0>>o | w1<<(64-o)
}

// next64 advances the state one batch and returns the next 64 keystream
// bits, bit k of the result being keystream bit k of the batch. The tap
// positions are the spec's s-indices mapped into registers: A = s1..s93,
// B = s94..s177, C = s178..s288.
func (c *Cipher) next64() uint64 {
	a66, a93 := ext(c.a0, c.a1, 66), ext(c.a0, c.a1, 93)
	b69, b84 := ext(c.b0, c.b1, 69), ext(c.b0, c.b1, 84)
	c66, c111 := ext(c.c0, c.c1, 66), ext(c.c0, c.c1, 111)
	z := a66 ^ a93 ^ b69 ^ b84 ^ c66 ^ c111
	t1 := a66 ^ ext(c.a0, c.a1, 91)&ext(c.a0, c.a1, 92) ^ a93 ^ ext(c.b0, c.b1, 78)
	t2 := b69 ^ ext(c.b0, c.b1, 82)&ext(c.b0, c.b1, 83) ^ b84 ^ ext(c.c0, c.c1, 87)
	t3 := c66 ^ ext(c.c0, c.c1, 109)&ext(c.c0, c.c1, 110) ^ c111 ^ ext(c.a0, c.a1, 69)
	c.a0, c.a1 = c.a1, t3
	c.b0, c.b1 = c.b1, t1
	c.c0, c.c1 = c.c1, t2
	return z
}

// refill generates the next batch into the byte buffer. Keystream bit k of
// a batch is the MSB-first bit k of the output, so the batch word (bit k at
// position k) is bit-reversed and stored big-endian.
func (c *Cipher) refill() {
	binary.BigEndian.PutUint64(c.buf[:], bits.Reverse64(c.next64()))
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
	for len(dst) >= 8 {
		binary.BigEndian.PutUint64(dst, bits.Reverse64(c.next64()))
		dst = dst[8:]
	}
	if len(dst) > 0 {
		c.refill()
		n := copy(dst, c.buf[:])
		c.pos = n
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
	for len(src) >= 8 {
		v := binary.LittleEndian.Uint64(src)
		ks := bits.ReverseBytes64(bits.Reverse64(c.next64()))
		binary.LittleEndian.PutUint64(dst, v^ks)
		dst = dst[8:]
		src = src[8:]
	}
	if len(src) > 0 {
		c.refill()
		for i, v := range src {
			dst[i] = v ^ c.buf[i]
		}
		c.pos = len(src)
	}
}
