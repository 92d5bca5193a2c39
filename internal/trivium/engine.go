package trivium

import (
	"encoding/binary"
	"sync/atomic"
)

// Engine models the IceClave stream cipher engine placed in the flash
// controller (paper Figure 10). It holds the device key in a register that
// is architecturally invisible to in-storage programs, and derives a fresh
// 80-bit IV per flash page from a pseudo-random 48-bit base concatenated
// with the page's 32-bit physical page address (PPA).
//
// The same engine and IV decrypt the data on the DRAM side, so only
// ciphertext ever crosses the internal bus. The hardware produces 64
// keystream bits per cycle; the cycle cost model lives in the timing layer,
// this type provides the functional transformation.
//
// Engine is safe for concurrent use: the key is immutable, the IV base is
// atomic, and each page operation keys its own cipher state — mirroring
// the hardware, where per-channel cipher units run in parallel off one
// key register.
type Engine struct {
	key    [KeySize]byte
	ivBase atomic.Uint64 // 48-bit temporally-unique base, advanced per epoch
}

// NewEngine returns an engine keyed with key (10 bytes) and an initial IV
// base. Only the low 48 bits of ivBase are used.
func NewEngine(key []byte, ivBase uint64) *Engine {
	if len(key) != KeySize {
		panic("trivium: engine key must be 10 bytes")
	}
	e := &Engine{}
	e.ivBase.Store(ivBase & (1<<48 - 1))
	copy(e.key[:], key)
	return e
}

// IVBase returns the current 48-bit IV base.
func (e *Engine) IVBase() uint64 { return e.ivBase.Load() }

// AdvanceEpoch replaces the IV base, e.g. after a key-rotation epoch. The
// paper constructs temporal uniqueness from a PRNG; the device feeds a new
// base in here.
func (e *Engine) AdvanceEpoch(newBase uint64) { e.ivBase.Store(newBase & (1<<48 - 1)) }

// IVFor builds the 80-bit IV for a physical page address: 48 bits of the
// epoch base followed by the 32-bit PPA. Spatial uniqueness comes from the
// PPA, temporal uniqueness from the base.
func (e *Engine) IVFor(ppa uint32) [IVSize]byte {
	base := e.ivBase.Load()
	var iv [IVSize]byte
	iv[0] = byte(base >> 40)
	iv[1] = byte(base >> 32)
	iv[2] = byte(base >> 24)
	iv[3] = byte(base >> 16)
	iv[4] = byte(base >> 8)
	iv[5] = byte(base)
	binary.BigEndian.PutUint32(iv[6:], ppa)
	return iv
}

// EncryptPage XORs the page in place with the keystream derived from the
// device key and the page's PPA-bound IV. Decryption is the same
// operation, so DecryptPage is an alias kept for readable call sites.
func (e *Engine) EncryptPage(ppa uint32, page []byte) { e.EncryptPageTo(ppa, page, page) }

// EncryptPageTo encrypts, in one pass, the page at ppa whose contents are
// src zero-extended to len(dst) — a flash page holding a payload shorter
// than the page — into dst: dst[:len(src)] = src XOR keystream, and the
// rest of dst is bare keystream, which is what the page's zero tail
// encrypts to. The §4.6 read path writes the bus ciphertext this way,
// straight from the flash payload into the bus buffer. dst and src may be
// the same slice; it panics if src is longer than dst.
func (e *Engine) EncryptPageTo(ppa uint32, dst, src []byte) {
	if len(src) > len(dst) {
		panic("trivium: page payload longer than the page")
	}
	iv := e.IVFor(ppa)
	var c Cipher
	c.Reset(e.key[:], iv[:])
	c.XORKeyStream(dst, src)
	c.Keystream(dst[len(src):])
}

// DecryptPage reverses EncryptPage for the same PPA and epoch.
func (e *Engine) DecryptPage(ppa uint32, page []byte) { e.EncryptPage(ppa, page) }
