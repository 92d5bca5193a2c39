// Package host models everything outside the SSD: the PCIe/NVMe transfer
// path with its per-command software overhead, the host CPU, the Intel SGX
// cost model used by the Host+SGX baseline, and the IceClave host library
// (OffloadCode / GetResult) of Table 2.
//
// Concurrency contract: PCIe and the SGX model accumulate per-replay
// transfer accounting and are not safe for concurrent use — each replay
// or tenant session owns its own. Offload and Result are plain values
// passed across the host/device boundary; concurrent tenants submitting
// Offloads are serialized by the device side (iceclave.SSD and
// internal/sched), not here.
package host

import (
	"fmt"

	"iceclave/internal/sim"
)

// PCIeConfig describes the external I/O path from the SSD to host memory.
type PCIeConfig struct {
	// BytesPerSec is the raw link bandwidth. The evaluation SSD (Intel DC
	// P4500) delivers ~3.2 GB/s sequential reads over PCIe 3.0 x4.
	BytesPerSec float64
	// PerCommand is the host software-stack cost charged per NVMe command:
	// syscall, block layer, interrupt, and completion handling. This is
	// what makes the host path slower than the raw link for query I/O.
	PerCommand sim.Duration
	// MaxPayload is the I/O request size the host issues. Scan-heavy
	// workloads use large requests; transactional workloads small ones.
	MaxPayload int64
}

// DefaultPCIeConfig returns the calibrated external path: 3.2 GB/s link,
// 20 µs of host-stack time per command, 64 KB requests. Effective
// streaming bandwidth works out to ~1.6 GB/s, matching the load-dominated
// host bars of Figure 11 against the 8-channel internal 4.7 GB/s.
func DefaultPCIeConfig() PCIeConfig {
	return PCIeConfig{
		BytesPerSec: 3.2e9,
		PerCommand:  20 * sim.Microsecond,
		MaxPayload:  64 << 10,
	}
}

// PCIe is the contended external link. PCIe is full duplex: device-to-host
// reads and host-to-device writes ride separate lanes and do not block
// each other.
type PCIe struct {
	cfg  PCIeConfig
	up   *sim.Server // device -> host (reads)
	down *sim.Server // host -> device (writes)
	cmds int64
}

// NewPCIe builds the link model. It panics on a non-positive bandwidth.
func NewPCIe(cfg PCIeConfig) *PCIe {
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = 64 << 10
	}
	if cfg.BytesPerSec <= 0 {
		panic("host: PCIe bandwidth must be positive")
	}
	return &PCIe{cfg: cfg, up: sim.NewServer("pcie-up", 1), down: sim.NewServer("pcie-down", 1)}
}

// Config returns the link parameters.
func (p *PCIe) Config() PCIeConfig { return p.cfg }

// Commands returns how many NVMe commands have been issued.
func (p *PCIe) Commands() int64 { return p.cmds }

// TransferStream moves n bytes as part of a long readahead stream: the
// link reservation includes the host-stack cost amortized at MaxPayload
// command granularity, so the per-command cost limits throughput (the
// host CPU and block layer stay busy for it) while small reads still
// pipeline. This is the path the replay engine uses for data loading.
func (p *PCIe) TransferStream(at sim.Time, n int64) (done sim.Time) {
	return p.stream(p.up, at, n)
}

// TransferStreamDown is TransferStream on the host-to-device lanes.
func (p *PCIe) TransferStreamDown(at sim.Time, n int64) (done sim.Time) {
	return p.stream(p.down, at, n)
}

func (p *PCIe) stream(lane *sim.Server, at sim.Time, n int64) (done sim.Time) {
	if n <= 0 {
		return at
	}
	stack := sim.Duration(float64(p.cfg.PerCommand) * float64(n) / float64(p.cfg.MaxPayload))
	busy := stack + sim.DurationForBytes(n, p.cfg.BytesPerSec)
	p.cmds += (n + p.cfg.MaxPayload - 1) / p.cfg.MaxPayload
	_, done = lane.Acquire(at, busy)
	return done
}

// Reset clears link reservations and counters.
func (p *PCIe) Reset() { p.up.Reset(); p.down.Reset(); p.cmds = 0 }

// SGXConfig is the cost model for the Host+SGX baseline: enclave MEE
// traffic and EPC paging inflate compute, and data entering the enclave
// pays transition costs. Calibrated so the query workloads see roughly
// the 103% extra compute time reported in §6.2 for SGX SDK 2.5.101 on
// the evaluation server.
type SGXConfig struct {
	// ComputeInflation is the fractional extra compute time inside the
	// enclave (1.03 = the paper's 103% average).
	ComputeInflation float64
	// TransitionCost is the ECALL/OCALL world-crossing cost.
	TransitionCost sim.Duration
	// TransitionsPerMB approximates enclave crossings per MB of data
	// pulled into the enclave (paging and untrusted I/O).
	TransitionsPerMB float64
}

// DefaultSGXConfig returns the calibrated SGX model.
func DefaultSGXConfig() SGXConfig {
	return SGXConfig{
		ComputeInflation: 1.03,
		TransitionCost:   8 * sim.Microsecond,
		TransitionsPerMB: 4,
	}
}

// ComputePenalty returns the extra time SGX adds to a phase that took
// baseCompute of host compute over inputBytes of enclave-resident data.
// The transition count is fractional: the replay charges one 4 KB page per
// call, 1/64 of a transition at the default rate.
func (c SGXConfig) ComputePenalty(baseCompute sim.Duration, inputBytes int64) sim.Duration {
	mb := float64(inputBytes) / (1 << 20)
	transitionTime := sim.Duration(mb * c.TransitionsPerMB * float64(c.TransitionCost))
	return sim.Duration(float64(baseCompute)*c.ComputeInflation) + transitionTime
}

// Offload is a host-side request built by the IceClave library's
// OffloadCode API (Table 2): a pre-compiled program image, the logical
// pages it will access, opaque arguments, and a task ID.
type Offload struct {
	TaskID uint32
	Binary []byte   // machine code image (28–528 KB for the §4.5 corpus)
	LPAs   []uint32 // logical pages the program is entitled to
	Args   []byte
}

// Validate rejects malformed offload requests before they reach the SSD.
func (o Offload) Validate() error {
	if len(o.Binary) == 0 {
		return fmt.Errorf("host: offload %d has empty binary", o.TaskID)
	}
	if len(o.LPAs) == 0 {
		return fmt.Errorf("host: offload %d declares no data pages", o.TaskID)
	}
	return nil
}

// Result carries the output of a finished in-storage task back through
// GetResult.
type Result struct {
	TaskID uint32
	Data   []byte
	Err    error
}
