package host

import (
	"testing"

	"iceclave/internal/sim"
)

func TestPCIeTransferChargesPerCommand(t *testing.T) {
	p := NewPCIe(PCIeConfig{BytesPerSec: 1e9, PerCommand: 10 * sim.Microsecond, MaxPayload: 1 << 20})
	done := p.TransferStream(0, 2<<20) // two commands
	raw := sim.DurationForBytes(2<<20, 1e9)
	if done <= raw {
		t.Fatalf("transfer %v did not include command overhead (raw %v)", done, raw)
	}
	if p.Commands() != 2 {
		t.Fatalf("commands = %d, want 2", p.Commands())
	}
}

func TestPCIeEffectiveBandwidthBelowLink(t *testing.T) {
	p := NewPCIe(DefaultPCIeConfig())
	const n = 1 << 30
	eff := float64(n) / p.TransferStream(0, n).Seconds()
	if eff >= p.Config().BytesPerSec {
		t.Fatalf("effective bandwidth %v not below link rate", eff)
	}
	// The calibrated default should land well under the internal
	// bandwidth of an 8-channel SSD (4.7 GB/s) — that gap is the
	// in-storage computing opportunity.
	if eff > 2.5e9 {
		t.Fatalf("effective bandwidth %v too close to internal bandwidth", eff)
	}
	if eff < 0.8e9 {
		t.Fatalf("effective bandwidth %v implausibly low", eff)
	}
}

func TestPCIeZeroBytes(t *testing.T) {
	p := NewPCIe(DefaultPCIeConfig())
	if done := p.TransferStream(42, 0); done != 42 {
		t.Fatal("zero-byte transfer took time")
	}
}

func TestPCIeSmallerRequestsSlower(t *testing.T) {
	big := NewPCIe(PCIeConfig{BytesPerSec: 3.2e9, PerCommand: 20 * sim.Microsecond, MaxPayload: 128 << 10})
	small := NewPCIe(PCIeConfig{BytesPerSec: 3.2e9, PerCommand: 20 * sim.Microsecond, MaxPayload: 4 << 10})
	if big.TransferStream(0, 1<<20) >= small.TransferStream(0, 1<<20) {
		t.Fatal("larger requests should deliver more bandwidth")
	}
}

func TestPCIeReset(t *testing.T) {
	p := NewPCIe(DefaultPCIeConfig())
	p.TransferStream(0, 1<<20)
	p.Reset()
	if p.Commands() != 0 {
		t.Fatal("reset did not clear command count")
	}
	done := p.TransferStream(0, 64<<10)
	want := p.Config().PerCommand + sim.DurationForBytes(64<<10, p.Config().BytesPerSec)
	if done != want {
		t.Fatalf("post-reset transfer = %v, want %v", done, want)
	}
}

func TestSGXPenaltyGrowsWithCompute(t *testing.T) {
	c := DefaultSGXConfig()
	light := c.ComputePenalty(1*sim.Millisecond, 1<<20)
	heavy := c.ComputePenalty(100*sim.Millisecond, 1<<20)
	if heavy <= light {
		t.Fatal("SGX penalty must grow with base compute time")
	}
}

func TestSGXPenaltyCalibration(t *testing.T) {
	// The paper reports ~103% extra compute time inside SGX: for a
	// compute-dominated phase the penalty should be close to the base.
	c := DefaultSGXConfig()
	base := 1 * sim.Second
	penalty := c.ComputePenalty(base, 1<<20)
	ratio := float64(penalty) / float64(base)
	if ratio < 0.9 || ratio > 1.3 {
		t.Fatalf("SGX penalty ratio = %v, want ~1.03", ratio)
	}
}

func TestOffloadValidate(t *testing.T) {
	ok := Offload{TaskID: 1, Binary: []byte{0x1}, LPAs: []uint32{0}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Offload{TaskID: 1, LPAs: []uint32{0}}).Validate(); err == nil {
		t.Fatal("empty binary accepted")
	}
	if err := (Offload{TaskID: 1, Binary: []byte{1}}).Validate(); err == nil {
		t.Fatal("empty LPA list accepted")
	}
}
