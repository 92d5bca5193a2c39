package iceclave

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"iceclave/internal/ftl"
	"iceclave/internal/host"
	"iceclave/internal/query"
)

func openSmall(t *testing.T) *SSD {
	t.Helper()
	ssd, err := Open(Options{Channels: 2, BlocksPerPlane: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ssd
}

func TestHostReadWrite(t *testing.T) {
	ssd := openSmall(t)
	want := bytes.Repeat([]byte{0xEE}, 64)
	if err := ssd.HostWrite(5, want); err != nil {
		t.Fatal(err)
	}
	got, err := ssd.HostRead(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:64], want) {
		t.Fatal("host round trip failed")
	}
}

func TestOffloadQueryEndToEnd(t *testing.T) {
	// The full Figure 9 workflow: store a dataset, offload a query,
	// execute it inside the TEE, and fetch the result.
	ssd, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := query.GenerateTPCH(2000, 3)
	sd, err := ssd.StoreDataset(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	task, err := ssd.OffloadCode(host.Offload{
		TaskID: 1,
		Binary: make([]byte, 64<<10),
		LPAs:   sd.AllLPAs(ssd.PageSize()),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := query.Q1(task.Store(), sd, task.Meter())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n=") {
		t.Fatalf("unexpected result %q", out)
	}
	// The result must match a plain host-side execution byte for byte.
	memStore := query.NewMemStore(4096)
	ds2 := query.GenerateTPCH(2000, 3)
	sd2, _ := ds2.Store(memStore, 0)
	var m query.Meter
	want, err := query.Q1(memStore, sd2, &m)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Fatalf("TEE result differs from host result:\n%s\nvs\n%s", out, want)
	}
	if err := task.Finish([]byte(out)); err != nil {
		t.Fatal(err)
	}
	if string(task.TEE().Result()) != out {
		t.Fatal("result not preserved through termination")
	}
}

func TestOffloadIsolation(t *testing.T) {
	ssd := openSmall(t)
	for lpa := uint32(0); lpa < 8; lpa++ {
		if err := ssd.HostWrite(lpa, []byte{byte(lpa)}); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := ssd.OffloadCode(host.Offload{TaskID: 1, Binary: []byte{1}, LPAs: []uint32{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := ssd.OffloadCode(host.Offload{TaskID: 2, Binary: []byte{1}, LPAs: []uint32{4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attacker.Store().ReadPage(0); !errors.Is(err, ftl.ErrAccessDenied) {
		t.Fatalf("cross-TEE read returned %v", err)
	}
	if _, err := victim.Store().ReadPage(0); err != nil {
		t.Fatalf("victim read failed: %v", err)
	}
}

func TestOffloadValidation(t *testing.T) {
	ssd := openSmall(t)
	if _, err := ssd.OffloadCode(host.Offload{TaskID: 1}); err == nil {
		t.Fatal("invalid offload accepted")
	}
}

// TestOpenRejectsShortCipherKey pins that a bus key of the wrong length
// fails Open with an error instead of panicking in the cipher engine.
func TestOpenRejectsShortCipherKey(t *testing.T) {
	ssd, err := Open(Options{Channels: 2, BlocksPerPlane: 8, CipherKey: []byte("short")})
	if err == nil || ssd != nil {
		t.Fatalf("Open with a 5-byte key = (%v, %v), want an error", ssd, err)
	}
}

// TestOpenRejectsDRAMWithoutHeap pins that a DRAM no larger than the
// secure and protected regions (128 MB) fails Open instead of
// underflowing the TEE-heap size.
func TestOpenRejectsDRAMWithoutHeap(t *testing.T) {
	for _, dram := range []uint64{64 << 20, 128 << 20} {
		ssd, err := Open(Options{Channels: 2, BlocksPerPlane: 8, DRAMBytes: dram})
		if err == nil {
			t.Fatalf("Open with %d MB of DRAM succeeded, heap free %d bytes", dram>>20, ssd.Runtime().HeapFree())
		}
	}
	if _, err := Open(Options{Channels: 2, BlocksPerPlane: 8, DRAMBytes: 129 << 20}); err != nil {
		t.Fatalf("Open with 129 MB of DRAM: %v", err)
	}
}

// TestFillAndRewriteEveryLogicalPage pins that every logical page Open
// reports is writable and stays rewritable: each geometry takes a write
// to every LPA, then three full rewrite rounds that keep GC reclaiming
// while every die's free pool runs dry. An empty pool with no GC victim
// is not a full device: on {1 channel, 1 block per plane} the pools run
// dry at LPA 1,040 of 1,792, and on {3, 2} at 9,264 of 10,752, while
// the dies' active blocks still have free pages. {2, 8} is the
// benchmark harness's offload device.
func TestFillAndRewriteEveryLogicalPage(t *testing.T) {
	for _, g := range []struct{ channels, blocksPerPlane int }{{1, 1}, {3, 2}, {2, 8}} {
		t.Run(fmt.Sprintf("%dch-%dblk", g.channels, g.blocksPerPlane), func(t *testing.T) {
			ssd, err := Open(Options{Channels: g.channels, BlocksPerPlane: g.blocksPerPlane})
			if err != nil {
				t.Fatal(err)
			}
			n := ssd.LogicalPages()
			const rounds = 4 // the fill, then three rewrites
			for r := byte(0); r < rounds; r++ {
				for lpa := uint32(0); int64(lpa) < n; lpa++ {
					if err := ssd.HostWrite(lpa, []byte{r}); err != nil {
						t.Fatalf("round %d: LPA %d of %d: %v", r, lpa, n, err)
					}
				}
			}
			for lpa := uint32(0); int64(lpa) < n; lpa += 61 {
				got, err := ssd.HostRead(lpa)
				if err != nil || got[0] != rounds-1 {
					t.Fatalf("LPA %d after the last round: %v, %v", lpa, got, err)
				}
			}
		})
	}
}
