// Package mee implements IceClave's memory encryption engine for SSD DRAM
// (paper §4.4): counter-mode encryption with split counters, counters
// authenticated up to trusted on-chip state, and a counter-cache traffic
// model that quantifies the extra DRAM accesses encryption and
// verification cost (Table 6, Figure 8).
//
// The package has two faces:
//
//   - Engine is a functional encrypted memory: it really encrypts 64-byte
//     lines with an AES-CTR one-time pad, really MACs them with SHA-256,
//     and really detects tampering, replay, and counter corruption. Every
//     page carries split counters; it backs tee.Runtime.Memory() and the
//     attacks example, not the replayed data path.
//   - TrafficModel is the statistical counter-cache simulation the timing
//     experiments drive with millions of accesses. The paper's hybrid
//     counters (major-only for read-only pages, split for writable ones)
//     and its Bonsai Merkle Tree walk live there only.
//
// Concurrency contract: Engine is safe for concurrent use (one mutex
// serializes page-state updates; the AES key schedule is expanded once
// and read-only after construction). TrafficModel is not — each replay
// drives a private instance.
package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// LineSize is the protected-memory granularity: one 64-byte cache line.
const LineSize = 64

// PageSize is the protection page granularity (4 KB base pages, Figure 7).
const PageSize = 4096

// LinesPerPage is the number of cache lines per page.
const LinesPerPage = PageSize / LineSize

// MinorLimit is the capacity of a 6-bit minor counter; the 64th write to a
// line within one major epoch overflows it, forcing a page re-encryption
// (major bump + minor reset).
const MinorLimit = 64

// ErrIntegrity is returned when a MAC or tree verification fails: the
// memory returned different bytes than the processor last wrote.
var ErrIntegrity = errors.New("mee: integrity verification failed")

// counterSet is the split counter state of one writable page: a 64-bit
// major counter plus one 6-bit minor counter per line.
type counterSet struct {
	major  uint64
	minors [LinesPerPage]uint8
}

// pageState is the DRAM-side state of one protected page: ciphertext
// lines, their MACs, and the in-memory copy of the page's counters. An
// adversary with physical access can rewrite any of it — that is what the
// tamper/replay methods simulate.
//
// Ciphertext and MACs live in dense per-page arrays (one contiguous 4 KB
// ciphertext image plus a presence bitmap): a minor-counter overflow
// re-encrypts every line of the page at once.
type pageState struct {
	ctr     counterSet
	present [LinesPerPage]bool     // line written at least once
	ct      [PageSize]byte         // dense ciphertext image
	macs    [LinesPerPage][32]byte // MAC over (ciphertext, counter, address)
}

// lineCT returns the ciphertext of one line of the dense image.
func (ps *pageState) lineCT(line int) []byte {
	return ps.ct[line*LineSize : (line+1)*LineSize]
}

// Engine is the functional encrypted memory. It stores only ciphertext;
// plaintext exists solely in the (simulated) processor.
//
// Integrity follows the Bonsai Merkle Tree argument: MACs bind data to
// counters, and counters are authenticated by on-chip state. The engine
// keeps that state as a per-page counter digest held in the verified
// counter cache (trusted, on-chip in real MEEs), refreshed on every
// legitimate counter change. Replaying DRAM-side state rolls back the
// counters but cannot touch the verified digests, so reads detect it. The
// log-depth traffic of a real 8-ary BMT walk is charged by TrafficModel.
//
// Engine is safe for concurrent use: one mutex serializes all page-state
// and digest updates, so concurrent TEE heaps sharing one MEE cannot
// tear a counter/MAC/digest triple.
type Engine struct {
	mu     sync.Mutex
	block  cipher.Block // AES key schedule, expanded once at construction
	macKey [32]byte
	pages  map[uint64]*pageState // DRAM-side state
	// trusted is the verified counter digest per page (on-chip perimeter).
	trusted map[uint64][32]byte
}

// NewEngine returns a functional engine with the given device secrets.
func NewEngine(aesKey [16]byte, macKey [32]byte) *Engine {
	block, err := aes.NewCipher(aesKey[:])
	if err != nil {
		panic(err) // 16-byte key cannot fail
	}
	return &Engine{
		block:   block,
		macKey:  macKey,
		pages:   make(map[uint64]*pageState),
		trusted: make(map[uint64][32]byte),
	}
}

// pad derives the one-time pad for (page, line, counter) — split-counter
// encryption: AES(k, page ⧺ line ⧺ major ⧺ minor) (paper §4.4). The key
// schedule is expanded once in NewEngine — a real MEE holds it in hardware
// registers — so a page operation costs 4 AES block encryptions per line,
// not 4 key expansions.
func (e *Engine) pad(page uint64, line int, major uint64, minor uint8) [LineSize]byte {
	block := e.block
	var pad [LineSize]byte
	for i := 0; i < LineSize/16; i++ {
		var ctr [16]byte
		binary.LittleEndian.PutUint64(ctr[0:], page)
		binary.LittleEndian.PutUint16(ctr[8:], uint16(line))
		ctr[10] = minor
		ctr[11] = byte(i) // AES block index within the line
		binary.LittleEndian.PutUint32(ctr[12:], uint32(major)^uint32(major>>32))
		var out [16]byte
		block.Encrypt(out[:], ctr[:])
		copy(pad[i*16:], out[:])
	}
	return pad
}

// mac computes the Bonsai-style line MAC over ciphertext, counters, and
// address, keyed with the device MAC key.
func (e *Engine) mac(page uint64, line int, major uint64, minor uint8, ct []byte) [32]byte {
	h := sha256.New()
	h.Write(e.macKey[:])
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], page)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(line))
	binary.LittleEndian.PutUint64(hdr[12:], major)
	hdr[20] = minor
	h.Write(hdr[:])
	h.Write(ct)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// digest hashes a page's counters: the quantity the integrity tree
// authenticates.
func (e *Engine) digest(p uint64, ps *pageState) [32]byte {
	h := sha256.New()
	h.Write(e.macKey[:])
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], p)
	binary.LittleEndian.PutUint64(buf[8:], ps.ctr.major)
	h.Write(buf[:])
	h.Write(ps.ctr.minors[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// commitCounters refreshes the verified digest after a legitimate counter
// change.
func (e *Engine) commitCounters(p uint64, ps *pageState) {
	e.trusted[p] = e.digest(p, ps)
}

// verifyCounters checks the DRAM-side counters of p against the verified
// digest — the tree walk that defeats replay.
func (e *Engine) verifyCounters(p uint64, ps *pageState) error {
	if e.digest(p, ps) != e.trusted[p] {
		return fmt.Errorf("%w: counter tree mismatch on page %d", ErrIntegrity, p)
	}
	return nil
}

func (e *Engine) page(p uint64) *pageState {
	ps, ok := e.pages[p]
	if !ok {
		ps = new(pageState)
		e.pages[p] = ps
		e.commitCounters(p, ps)
	}
	return ps
}

func checkLine(line int) error {
	if line < 0 || line >= LinesPerPage {
		return fmt.Errorf("mee: line %d out of page range", line)
	}
	return nil
}

// Write encrypts and stores one 64-byte line of page p. The minor counter
// is bumped first for temporal pad uniqueness; overflow triggers the page
// re-encryption path (major bump, minors reset), exactly the split-counter
// behaviour whose cost the hybrid scheme avoids for read-only pages.
func (e *Engine) Write(p uint64, line int, data []byte) error {
	if err := checkLine(line); err != nil {
		return err
	}
	if len(data) != LineSize {
		return fmt.Errorf("mee: write of %d bytes, want %d", len(data), LineSize)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ps := e.page(p)
	if ps.ctr.minors[line] >= MinorLimit-1 {
		if err := e.reencryptPage(p, ps); err != nil {
			return err
		}
	}
	ps.ctr.minors[line]++
	e.sealLine(p, ps, line, data)
	e.commitCounters(p, ps)
	return nil
}

// sealLine encrypts data under the line's current counters into the dense
// ciphertext image and refreshes its MAC.
func (e *Engine) sealLine(p uint64, ps *pageState, line int, data []byte) {
	minor := ps.ctr.minors[line]
	pad := e.pad(p, line, ps.ctr.major, minor)
	ct := ps.lineCT(line)
	for i := range ct {
		ct[i] = data[i] ^ pad[i]
	}
	ps.present[line] = true
	ps.macs[line] = e.mac(p, line, ps.ctr.major, minor, ct)
}

// reencryptPage handles minor-counter overflow: bump the major counter,
// reset the minors, and re-encrypt every resident line under the new
// counters.
func (e *Engine) reencryptPage(p uint64, ps *pageState) error {
	var plain [PageSize]byte
	for line := 0; line < LinesPerPage; line++ {
		if !ps.present[line] {
			continue
		}
		data, err := e.readLine(p, ps, line)
		if err != nil {
			return err
		}
		copy(plain[line*LineSize:], data)
	}
	ps.ctr.major++
	ps.ctr.minors = [LinesPerPage]uint8{}
	for line := 0; line < LinesPerPage; line++ {
		if ps.present[line] {
			e.sealLine(p, ps, line, plain[line*LineSize:(line+1)*LineSize])
		}
	}
	e.commitCounters(p, ps)
	return nil
}

// readLine decrypts and verifies one line's MAC (the caller verifies the
// counter tree once per operation).
func (e *Engine) readLine(p uint64, ps *pageState, line int) ([]byte, error) {
	if !ps.present[line] {
		return nil, fmt.Errorf("mee: read of unwritten line %d of page %d", line, p)
	}
	ct := ps.lineCT(line)
	minor := ps.ctr.minors[line]
	want := e.mac(p, line, ps.ctr.major, minor, ct)
	if want != ps.macs[line] {
		return nil, fmt.Errorf("%w: MAC mismatch on page %d line %d", ErrIntegrity, p, line)
	}
	pad := e.pad(p, line, ps.ctr.major, minor)
	out := make([]byte, LineSize)
	for i := range out {
		out[i] = ct[i] ^ pad[i]
	}
	return out, nil
}

// Read verifies and decrypts one line of page p: counter-tree check (which
// defeats replay of an old ciphertext/MAC/counter triple), then MAC check,
// then decryption.
func (e *Engine) Read(p uint64, line int) ([]byte, error) {
	if err := checkLine(line); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, ok := e.pages[p]
	if !ok {
		return nil, fmt.Errorf("mee: read of unmapped page %d", p)
	}
	if err := e.verifyCounters(p, ps); err != nil {
		return nil, err
	}
	return e.readLine(p, ps, line)
}

// --- Adversary interface (tests and attack demos) ---

// TamperCiphertext flips a bit of the stored ciphertext, modelling a
// physical write to DRAM. A subsequent Read must fail.
func (e *Engine) TamperCiphertext(p uint64, line int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, ok := e.pages[p]
	if !ok || line < 0 || line >= LinesPerPage || !ps.present[line] {
		return fmt.Errorf("mee: nothing to tamper at page %d line %d", p, line)
	}
	ps.ct[line*LineSize] ^= 0x80
	return nil
}

// Snapshot captures the full DRAM-side state of a line (ciphertext, MAC,
// counters) for a later replay.
type Snapshot struct {
	page  uint64
	line  int
	ct    []byte
	mac   [32]byte
	major uint64
	minor uint8
}

// Snapshot records the current DRAM-side state of a line.
func (e *Engine) Snapshot(p uint64, line int) (Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, ok := e.pages[p]
	if !ok || line < 0 || line >= LinesPerPage || !ps.present[line] {
		return Snapshot{}, fmt.Errorf("mee: nothing to snapshot at page %d line %d", p, line)
	}
	return Snapshot{
		page:  p,
		line:  line,
		ct:    append([]byte(nil), ps.lineCT(line)...),
		mac:   ps.macs[line],
		major: ps.ctr.major,
		minor: ps.ctr.minors[line],
	}, nil
}

// Replay rolls the DRAM-side state of a line back to a snapshot —
// ciphertext, MAC, and the in-memory counter copy together, which defeats
// MAC-only schemes. The verified counter tree (rooted on-chip) must catch
// it.
func (e *Engine) Replay(s Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, ok := e.pages[s.page]
	if !ok {
		return fmt.Errorf("mee: replay of unmapped page %d", s.page)
	}
	copy(ps.lineCT(s.line), s.ct)
	ps.present[s.line] = true
	ps.macs[s.line] = s.mac
	ps.ctr.major = s.major
	ps.ctr.minors[s.line] = s.minor
	return nil
}
