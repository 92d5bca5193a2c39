package trivium

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// corpusArgs parses one committed go-fuzz corpus file (the "go test fuzz v1"
// format: one Go literal per line) into its raw argument list. Only the
// literal forms our fuzz targets use — []byte, uint32, uint64 — appear in
// testdata/fuzz.
func corpusArgs(t *testing.T, path string) []interface{} {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read corpus file: %v", err)
	}
	var args []interface{}
	for _, line := range strings.Split(string(raw), "\n")[1:] {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "[]byte("):
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: bad []byte literal %q: %v", path, line, err)
			}
			args = append(args, []byte(s))
		case strings.HasPrefix(line, "uint32("):
			v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "uint32("), ")"), 0, 32)
			if err != nil {
				t.Fatalf("%s: bad uint32 literal %q: %v", path, line, err)
			}
			args = append(args, uint32(v))
		case strings.HasPrefix(line, "uint64("):
			v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "uint64("), ")"), 0, 64)
			if err != nil {
				t.Fatalf("%s: bad uint64 literal %q: %v", path, line, err)
			}
			args = append(args, uint64(v))
		case line == "":
		default:
			t.Fatalf("%s: unhandled corpus literal %q", path, line)
		}
	}
	return args
}

func corpusFiles(t *testing.T, target string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus for %s (err=%v)", target, err)
	}
	return files
}

// TestDifferentialCorpusKeystream proves the word-parallel Cipher
// keystream-identical to the bit-serial Reference on every committed
// FuzzKeystreamRoundTrip corpus entry.
func TestDifferentialCorpusKeystream(t *testing.T) {
	checked := 0
	for _, path := range corpusFiles(t, "FuzzKeystreamRoundTrip") {
		args := corpusArgs(t, path)
		if len(args) != 3 {
			t.Fatalf("%s: want 3 args, got %d", path, len(args))
		}
		key, _ := args[0].([]byte)
		iv, _ := args[1].([]byte)
		data, _ := args[2].([]byte)
		if len(key) != KeySize || len(iv) != IVSize {
			continue // the fuzz target skips these too
		}
		n := len(data) + 64 // cover the payload length plus extra batches
		want := make([]byte, n)
		NewReference(key, iv).Keystream(want)
		got := make([]byte, n)
		New(key, iv).Keystream(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: keystream diverged\nword: %x\nref:  %x", path, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("corpus contained no valid key/IV pairs")
	}
}

// TestDifferentialCorpusEngine replays the committed FuzzEnginePageRoundTrip
// corpus (PPA, IV base, page payload) through the word-parallel Engine and
// checks the ciphertext against a bit-serial encryption under the same
// PPA-bound IV.
func TestDifferentialCorpusEngine(t *testing.T) {
	key := []byte("iceclave-k")
	for _, path := range corpusFiles(t, "FuzzEnginePageRoundTrip") {
		args := corpusArgs(t, path)
		if len(args) != 3 {
			t.Fatalf("%s: want 3 args, got %d", path, len(args))
		}
		ppa, _ := args[0].(uint32)
		ivBase, _ := args[1].(uint64)
		data, _ := args[2].([]byte)
		e := NewEngine(key, ivBase)
		got := append([]byte(nil), data...)
		e.EncryptPage(ppa, got)
		iv := e.IVFor(ppa)
		want := make([]byte, len(data))
		NewReference(key, iv[:]).XORKeyStream(want, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: engine ciphertext diverged from bit-serial", path)
		}
	}
}

// TestDifferentialRandom hammers the two implementations with random keys,
// IVs, and lengths, consuming the word engine through randomly interleaved
// API calls (KeystreamByte, Keystream, XORKeyStream in odd-sized chunks) so
// the batch buffering across unaligned boundaries is exercised, not just
// whole-page calls.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1CEC1A7E))
	for trial := 0; trial < 200; trial++ {
		key := make([]byte, KeySize)
		iv := make([]byte, IVSize)
		rng.Read(key)
		rng.Read(iv)
		n := rng.Intn(1024)
		want := make([]byte, n)
		NewReference(key, iv).Keystream(want)

		got := make([]byte, 0, n)
		c := New(key, iv)
		for len(got) < n {
			switch remain := n - len(got); rng.Intn(3) {
			case 0: // single byte
				got = append(got, c.KeystreamByte())
			case 1: // bulk keystream of random size
				chunk := make([]byte, 1+rng.Intn(remain))
				c.Keystream(chunk)
				got = append(got, chunk...)
			default: // XOR path: recover the keystream by XORing zeros
				chunk := make([]byte, 1+rng.Intn(remain))
				c.XORKeyStream(chunk, chunk)
				got = append(got, chunk...)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (key=%x iv=%x n=%d): keystream diverged", trial, key, iv, n)
		}
	}
}

// TestDifferentialXORSeparateBuffers checks XORKeyStream with a random
// non-zero source written to a separate destination against
// Reference.XORKeyStream. Both buffers start at random unaligned offsets
// in larger allocations, the destination holding random stale bytes, and
// the word engine takes the message in random chunks, so batches
// straddle chunk boundaries and the one-pass XOR runs on loads and
// stores at every alignment.
func TestDifferentialXORSeparateBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EA1ED))
	for trial := 0; trial < 200; trial++ {
		key := make([]byte, KeySize)
		iv := make([]byte, IVSize)
		rng.Read(key)
		rng.Read(iv)
		n := 1 + rng.Intn(1024)
		srcBuf := make([]byte, n+8)
		rng.Read(srcBuf)
		src := srcBuf[rng.Intn(8):][:n]
		orig := append([]byte(nil), src...)
		want := make([]byte, n)
		NewReference(key, iv).XORKeyStream(want, src)

		dstBuf := make([]byte, n+8)
		rng.Read(dstBuf) // stale bytes a correct XOR never reads
		dst := dstBuf[rng.Intn(8):][:n]
		c := New(key, iv)
		for done := 0; done < n; {
			k := 1 + rng.Intn(n-done)
			c.XORKeyStream(dst[done:done+k], src[done:done+k])
			done += k
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("trial %d (key=%x iv=%x n=%d): ciphertext diverged", trial, key, iv, n)
		}
		if !bytes.Equal(src, orig) {
			t.Fatalf("trial %d: XORKeyStream wrote to its source", trial)
		}
	}
}

// TestCipherSpeedupFloor is the word-parallel Cipher's reason to exist,
// checked as a plain test: one encrypted-page unit of work (key schedule
// plus a 4 KB keystream) must cost at most a tenth of the bit-serial
// Reference's. Each leg runs a fixed page count and keeps the fastest of
// five interleaved reps, so a GC pause or a busy neighbour cannot sink the
// ratio. On 2 vCPUs it read 74-143x over 40 runs, and 79-109x under the
// race detector.
func TestCipherSpeedupFloor(t *testing.T) {
	const (
		floor     = 10
		refPages  = 4
		wordPages = 256
		reps      = 5
	)
	key := []byte("0123456789")
	iv := make([]byte, IVSize)
	page := make([]byte, 4096)
	perPage := func(c interface {
		Reset(key, iv []byte)
		Keystream(dst []byte)
	}, pages int) time.Duration {
		start := time.Now()
		for i := 0; i < pages; i++ {
			iv[9] = byte(i)
			c.Reset(key, iv)
			c.Keystream(page)
		}
		return time.Since(start) / time.Duration(pages)
	}
	refBest, wordBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		refBest = min(refBest, perPage(&Reference{}, refPages))
		wordBest = min(wordBest, perPage(&Cipher{}, wordPages))
	}
	ratio := float64(refBest) / float64(wordBest)
	t.Logf("per 4 KB page: bit-serial %v, word64 %v (%.1fx)", refBest, wordBest, ratio)
	if ratio < floor {
		t.Fatalf("word64 Cipher is %.1fx the bit-serial Reference, floor %dx", ratio, floor)
	}
}
