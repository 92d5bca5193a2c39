package core

import (
	"testing"

	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// recordQ1 records a mid-size scan trace once for the package's tests.
func recordTrace(t testing.TB, name string) *workload.Trace {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.TinyScale()
	sc.LineitemRows = 30_000
	sc.Accounts = 10_000
	sc.TPCBTxns = 3_000
	sc.StockRows = 10_000
	sc.TPCCTxns = 1_200
	sc.TextPages = 1_024
	tr, err := workload.Record(w, sc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runMode(t testing.TB, tr *workload.Trace, mode Mode, mut func(*Config)) Result {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	r, err := Run(tr, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestModeOrderingOnScan(t *testing.T) {
	tr := recordTrace(t, "TPC-H Q1")
	hostR := runMode(t, tr, ModeHost, nil)
	sgxR := runMode(t, tr, ModeHostSGX, nil)
	iscR := runMode(t, tr, ModeISC, nil)
	iceR := runMode(t, tr, ModeIceClave, nil)

	// Paper §6.2: ISC < IceClave < Host < Host+SGX on total time for the
	// I/O-bound query workloads.
	if !(iscR.Total < iceR.Total) {
		t.Fatalf("ISC (%v) not faster than IceClave (%v)", iscR.Total, iceR.Total)
	}
	if !(iceR.Total < hostR.Total) {
		t.Fatalf("IceClave (%v) not faster than Host (%v)", iceR.Total, hostR.Total)
	}
	if !(hostR.Total < sgxR.Total) {
		t.Fatalf("Host (%v) not faster than Host+SGX (%v)", hostR.Total, sgxR.Total)
	}

	// Speedup and overhead bands: 2.31x average vs host in the paper;
	// accept a broad band per-workload. Overhead vs ISC: 7.6% average,
	// up to ~28% — accept < 0.35.
	sp := iceR.SpeedupOver(hostR)
	if sp < 1.3 || sp > 5.0 {
		t.Fatalf("IceClave speedup over Host = %v, outside [1.3, 5.0]", sp)
	}
	ov := float64(iceR.Total-iscR.Total) / float64(iscR.Total)
	if ov > 0.35 {
		t.Fatalf("IceClave overhead vs ISC = %v, want < 0.35", ov)
	}
	t.Logf("Q1: host=%v sgx=%v isc=%v iceclave=%v speedup=%.2f overhead=%.1f%%",
		hostR.Total, sgxR.Total, iscR.Total, iceR.Total, sp, 100*ov)
}

func TestBreakdownPopulated(t *testing.T) {
	tr := recordTrace(t, "TPC-H Q1")
	r := runMode(t, tr, ModeIceClave, nil)
	if r.LoadTime <= 0 || r.ComputeTime <= 0 || r.SecurityTime <= 0 || r.TEETime <= 0 {
		t.Fatalf("breakdown has empty segments: %+v", r)
	}
	if r.CMTMissRate <= 0 || r.CMTMissRate > 0.05 {
		t.Fatalf("CMT miss rate = %v, want small but nonzero", r.CMTMissRate)
	}
	if r.MEE.DataAccesses() == 0 {
		t.Fatal("MEE saw no traffic")
	}
}

func TestChannelScalingHelpsISC(t *testing.T) {
	tr := recordTrace(t, "Filter")
	host4 := runMode(t, tr, ModeHost, func(c *Config) { c.Channels = 4 })
	var prev Result
	for i, ch := range []int{4, 8, 16, 32} {
		r := runMode(t, tr, ModeIceClave, func(c *Config) { c.Channels = ch })
		if i > 0 && r.Total > prev.Total {
			t.Fatalf("%d channels slower than fewer channels: %v > %v", ch, r.Total, prev.Total)
		}
		prev = r
		t.Logf("channels=%d iceclave=%v speedup-vs-host4=%.2f", ch, r.Total, r.SpeedupOver(host4))
	}
}

func TestFlashLatencySweep(t *testing.T) {
	tr := recordTrace(t, "Aggregate")
	var prev Result
	for i, lat := range []int{10, 50, 110} {
		r := runMode(t, tr, ModeIceClave, func(c *Config) {
			c.FlashTiming.ReadLatency = sim.Duration(lat) * sim.Microsecond
		})
		if i > 0 && r.Total < prev.Total {
			t.Fatalf("slower flash gave faster run: %v < %v", r.Total, prev.Total)
		}
		prev = r
	}
}

func TestMEEModeSweep(t *testing.T) {
	tr := recordTrace(t, "Wordcount")
	none := runMode(t, tr, ModeIceClave, func(c *Config) { c.MEEMode = mee.ModeNone })
	sc64 := runMode(t, tr, ModeIceClave, func(c *Config) { c.MEEMode = mee.ModeSplit64 })
	hyb := runMode(t, tr, ModeIceClave, nil)
	// Figure 8 ordering: Non-encryption <= IceClave(hybrid) <= SC-64.
	if !(none.Total <= hyb.Total && hyb.Total <= sc64.Total) {
		t.Fatalf("MEE mode ordering violated: none=%v hybrid=%v sc64=%v",
			none.Total, hyb.Total, sc64.Total)
	}
}

func TestSecureWorldMappingSlower(t *testing.T) {
	tr := recordTrace(t, "TPC-H Q12")
	normal := runMode(t, tr, ModeIceClave, nil)
	secure := runMode(t, tr, ModeIceClave, func(c *Config) { c.SecureWorldMapping = true })
	if secure.Total <= normal.Total {
		t.Fatalf("secure-world mapping (%v) not slower than protected region (%v)",
			secure.Total, normal.Total)
	}
}

func TestMultiTenantDegradation(t *testing.T) {
	a := recordTrace(t, "TPC-H Q1")
	b := recordTrace(t, "Filter")
	solo, err := Run(a, ModeIceClave, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	both, err := RunMulti([]*workload.Trace{a, b}, ModeIceClave, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if both[0].Total < solo.Total {
		t.Fatalf("collocated run faster than solo: %v < %v", both[0].Total, solo.Total)
	}
}

func TestDRAMCapacityEffect(t *testing.T) {
	tr := recordTrace(t, "TPC-H Q14")
	big := runMode(t, tr, ModeISC, func(c *Config) { c.DRAMBytes = 4 << 30 })
	small := runMode(t, tr, ModeISC, func(c *Config) { c.DRAMBytes = 64 << 20 })
	if small.Total < big.Total {
		t.Fatalf("less DRAM was faster: %v < %v", small.Total, big.Total)
	}
}

// TestReplayStepAllocationFree pins the per-step path at zero
// allocations: a warm single-tenant IceClave TPC-B replay (3,000
// transactions, about 12,000 steps) must allocate a bounded handful of
// objects per run — setup, the tenant, its bound step event, the Result —
// never one per step.
func TestReplayStepAllocationFree(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "TPC-B")
	SetPooling(true)
	ResetPool()
	cfg := DefaultConfig()
	if _, err := Run(tr, ModeIceClave, cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(tr, ModeIceClave, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 128 {
		t.Fatalf("warm TPC-B replay of %d steps allocates %.0f objects per run, want < 128", len(tr.Steps), allocs)
	}
}
