// Package iceclave is the public API of the IceClave reproduction: a
// trusted execution environment for in-storage computing (Kang et al.,
// MICRO 2021), built on a full computational-SSD simulator.
//
// The package exposes two layers:
//
//   - The functional device (SSD): a simulated flash SSD with an FTL,
//     TrustZone-style world separation, the IceClave runtime, memory
//     encryption, and the Trivium stream cipher engine. Programs offloaded
//     through OffloadCode run inside in-storage TEEs with enforced
//     isolation — cross-TEE accesses really fail, bus transfers really
//     carry ciphertext.
//
//   - The evaluation harness (internal/experiments, surfaced through the
//     cmd/iceclave-bench tool and the root benchmarks), which regenerates
//     every table and figure of the paper's evaluation.
//
// The SSD is safe for concurrent use: many tenants can OffloadCode,
// execute, and Finish from their own goroutines, and isolation holds
// mid-flight — a cross-TEE access still fails and aborts the offender
// while its neighbours keep running. The FTL serializes its mapping
// table and the flash device behind one mutex (ARCHITECTURE.md draws the
// full hierarchy); the encrypted data path runs outside it, on the
// word-parallel Trivium engine at hundreds of MB/s per core.
// internal/sched provides the admission-controlled worker pool
// (per-tenant in-flight caps, priority bands, graceful drain) that
// production multi-tenant deployments put in front of Execute.
package iceclave

import (
	"fmt"

	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/host"
	"iceclave/internal/query"
	"iceclave/internal/tee"
)

// Options configures a simulated SSD.
type Options struct {
	// Channels is the number of flash channels (default 8, Table 3).
	Channels int
	// BlocksPerPlane scales the device capacity (default 64).
	BlocksPerPlane int
	// DRAMBytes is the controller DRAM (default 4 GB). Open rejects a
	// size that leaves no TEE heap above the 128 MB of secure and
	// protected regions.
	DRAMBytes uint64
	// FaultPlan, when non-nil and non-zero, injects the plan's
	// deterministic faults into the device (flash read/program faults, die
	// deaths) and the runtime's read path (MAC-verification failures).
	// Faults surface from the public API as wrapped sentinels —
	// flash.ErrTransientRead, flash.ErrProgramFail, flash.ErrDieDead,
	// tee.ErrIntegrity — so callers dispatch with errors.Is. The FTL's own
	// recovery (bounded read retries, bad-block retirement and retry)
	// runs underneath, so only faults that exhaust it are visible here. A
	// nil or all-zero plan leaves the SSD fault-free. Plans scripting die
	// deaths outside the device geometry are rejected by Open with a
	// typed *fault.PlanError instead of silently never firing.
	FaultPlan *fault.Plan
	// CipherKey is the 10-byte Trivium key sealing this device's
	// encrypted bus (a fixed default is used when nil). Open rejects a key
	// of any other length.
	CipherKey []byte
}

// SSD is a functional IceClave-enabled computational SSD.
type SSD struct {
	dev     *flash.Device
	ftl     *ftl.FTL
	runtime *tee.Runtime
}

// Open builds an SSD with the given options.
func Open(opts Options) (*SSD, error) {
	if opts.Channels == 0 {
		opts.Channels = 8
	}
	if opts.BlocksPerPlane == 0 {
		opts.BlocksPerPlane = 64
	}
	geo := flash.Geometry{
		Channels:        opts.Channels,
		ChipsPerChannel: 4,
		DiesPerChip:     4,
		PlanesPerDie:    2,
		BlocksPerPlane:  opts.BlocksPerPlane,
		PagesPerBlock:   64,
		PageSize:        4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		return nil, err
	}
	f := ftl.New(dev)
	rt, err := tee.NewRuntime(f, tee.Options{DRAMBytes: opts.DRAMBytes, CipherKey: opts.CipherKey})
	if err != nil {
		return nil, err
	}
	if !opts.FaultPlan.Zero() {
		inj, err := fault.NewInjectorFor(opts.FaultPlan, geo.Channels, geo.DiesPerChannel())
		if err != nil {
			return nil, err
		}
		dev.SetInjector(inj)
		rt.SetFaultPlan(opts.FaultPlan)
	}
	return &SSD{dev: dev, ftl: f, runtime: rt}, nil
}

// PageSize returns the flash page size in bytes.
func (s *SSD) PageSize() int { return s.dev.Geometry().PageSize }

// LogicalPages returns the number of logical pages exposed.
func (s *SSD) LogicalPages() int64 { return s.ftl.LogicalPages() }

// Runtime exposes the IceClave runtime for advanced use (attack demos,
// lifecycle inspection).
func (s *SSD) Runtime() *tee.Runtime { return s.runtime }

// FTL exposes the flash translation layer (the secure-world component).
func (s *SSD) FTL() *ftl.FTL { return s.ftl }

// Geometry returns the device's flash geometry.
func (s *SSD) Geometry() flash.Geometry { return s.dev.Geometry() }

// FlashStats snapshots the raw device activity counters, including the
// injected fault aborts (FTL().Stats() holds the retirement and retry
// work).
func (s *SSD) FlashStats() flash.Stats { return s.dev.Snapshot() }

// HostWrite stores data at a logical page through the host I/O path (no
// TEE involved) — how datasets land on the device.
func (s *SSD) HostWrite(lpa uint32, data []byte) error {
	_, err := s.ftl.Write(s.runtime.Now(), ftl.LPA(lpa), data)
	return err
}

// HostRead reads a logical page through the host I/O path.
func (s *SSD) HostRead(lpa uint32) ([]byte, error) {
	_, data, err := s.ftl.Read(s.runtime.Now(), ftl.LPA(lpa))
	return data, err
}

// Task is an offloaded in-storage program: a live TEE plus the
// permission-checked storage view it computes over.
type Task struct {
	ssd   *SSD
	tee   *tee.TEE
	meter query.Meter
}

// OffloadCode implements the Table 2 host API: validate the offload
// request, create a TEE, and stamp the mapping-table ID bits for the
// pages the program may touch.
func (s *SSD) OffloadCode(o host.Offload) (*Task, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	lpas := make([]ftl.LPA, len(o.LPAs))
	for i, l := range o.LPAs {
		lpas[i] = ftl.LPA(l)
	}
	env, err := s.runtime.CreateTEE(tee.Config{Binary: o.Binary, LPAs: lpas})
	if err != nil {
		return nil, err
	}
	return &Task{ssd: s, tee: env}, nil
}

// Store returns the task's storage view: a query.Store whose reads and
// writes go through the TEE's permission checks and the encrypted bus.
// Programs built on the query engine run unchanged inside the TEE.
func (t *Task) Store() query.Store { return teeStore{t} }

// TEE exposes the underlying trusted execution environment.
func (t *Task) TEE() *tee.TEE { return t.tee }

// Meter returns the work accounting accumulated by the task's programs.
func (t *Task) Meter() *query.Meter { return &t.meter }

// Finish terminates the TEE, returning the result bytes to the host (the
// GetResult flow of Figure 9).
func (t *Task) Finish(result []byte) error {
	return t.ssd.runtime.TerminateTEE(t.tee, result)
}

// teeStore adapts the TEE data path to the query engine's Store interface.
type teeStore struct{ t *Task }

func (s teeStore) PageSize() int { return s.t.ssd.PageSize() }

func (s teeStore) ReadPage(lpa uint32) ([]byte, error) {
	s.t.meter.PagesRead++
	return s.t.ssd.runtime.ReadPage(s.t.tee, ftl.LPA(lpa))
}

func (s teeStore) WritePage(lpa uint32, data []byte) error {
	s.t.meter.PagesWritten++
	return s.t.ssd.runtime.WritePage(s.t.tee, ftl.LPA(lpa), data)
}

// Program is an offloaded in-storage program body: it computes over the
// task's permission-checked store, accounts its work in the meter, and
// returns the bytes handed back to the host through GetResult.
type Program func(st query.Store, m *query.Meter) ([]byte, error)

// Execute runs the full Figure 9 offload round trip as one call:
// OffloadCode, program execution inside the TEE, TerminateTEE. A program
// error throws the TEE out (the §4.5 exception path) and is returned to
// the caller. Execute is the unit of work a sched.Scheduler dispatches
// when the SSD serves many tenants concurrently; it is safe to call from
// many goroutines at once.
func (s *SSD) Execute(o host.Offload, prog Program) ([]byte, error) {
	task, err := s.OffloadCode(o)
	if err != nil {
		return nil, err
	}
	out, err := prog(task.Store(), &task.meter)
	if err != nil {
		s.runtime.ThrowOutTEE(task.tee, err.Error())
		return nil, err
	}
	if err := task.Finish(out); err != nil {
		return nil, err
	}
	return task.TEE().Result(), nil
}

// StoreDataset serializes a generated TPC-H dataset onto the SSD through
// the host path and returns its layout — the usual prelude to offloading
// a query.
func (s *SSD) StoreDataset(ds *query.Dataset, base uint32) (*query.StoredDataset, error) {
	sd, err := ds.Store(hostStore{s}, base)
	if err != nil {
		return nil, fmt.Errorf("iceclave: storing dataset: %w", err)
	}
	return sd, nil
}

// hostStore adapts the host I/O path to query.Store for dataset loading.
type hostStore struct{ s *SSD }

func (h hostStore) PageSize() int                        { return h.s.PageSize() }
func (h hostStore) ReadPage(lpa uint32) ([]byte, error)  { return h.s.HostRead(lpa) }
func (h hostStore) WritePage(lpa uint32, d []byte) error { return h.s.HostWrite(lpa, d) }
