// Package iceclave's root benchmarks regenerate the paper's evaluation
// artifacts, one benchmark per table and figure (each calls the Suite
// method that `iceclave-bench -experiment` names), plus the functional
// offload path: one round trip, and a burst through the scheduler. Run
// with: go test -bench=. -benchmem
package iceclave_test

import (
	"context"
	"fmt"
	"testing"

	"iceclave"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/host"
	"iceclave/internal/sched"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

// benchScale keeps benchmark runtime moderate while exercising the full
// experiment matrix; cmd/iceclave-bench runs the larger default scale.
func benchScale() workload.Scale {
	sc := workload.TinyScale()
	sc.LineitemRows = 20_000
	sc.Accounts = 8_000
	sc.TPCBTxns = 2_000
	sc.StockRows = 8_000
	sc.TPCCTxns = 800
	sc.TextPages = 512
	return sc
}

func benchSuite() *experiments.Suite {
	return experiments.NewSuite(benchScale(), core.DefaultConfig())
}

// runExperiment is the common shape of the per-artifact benchmarks.
func runExperiment(b *testing.B, fn func(*experiments.Suite) (*stats.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		tb, err := fn(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty result")
		}
		if i == 0 {
			b.Log("\n" + tb.String())
		}
	}
}

func BenchmarkTable1WriteRatios(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Table1() })
}

func BenchmarkTable5OverheadSources(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Table5() })
}

func BenchmarkTable6ExtraTraffic(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Table6() })
}

func BenchmarkFigure5MappingTablePlacement(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure5() })
}

func BenchmarkFigure8CounterSchemes(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure8() })
}

func BenchmarkFigure11ModeComparison(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure11() })
}

func BenchmarkFigure12ChannelScalingVsHost(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure12() })
}

func BenchmarkFigure13ChannelScalingVsISC(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure13() })
}

func BenchmarkFigure14FlashLatency(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure14() })
}

func BenchmarkFigure15CPUCapability(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure15() })
}

func BenchmarkFigure16DRAMCapacity(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure16() })
}

func BenchmarkFigure17TwoTenants(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure17() })
}

func BenchmarkFigure18FourTenants(b *testing.B) {
	runExperiment(b, func(s *experiments.Suite) (*stats.Table, error) { return s.Figure18() })
}

// tenantOffload is one tenant's offload request and the intermediate
// page its program writes, unowned until that write adopts it.
type tenantOffload struct {
	host.Offload
	scratch uint32
}

// offloadShape is the benchmark harness's offload: TEE creation over
// four host-written pages, a permission-checked encrypted read of each,
// one write that adopts the tenant's intermediate page, and termination.
func offloadShape(ssd *iceclave.SSD, o tenantOffload) error {
	task, err := ssd.OffloadCode(o.Offload)
	if err != nil {
		return err
	}
	st := task.Store()
	for _, l := range o.LPAs {
		if _, err := st.ReadPage(l); err != nil {
			return err
		}
	}
	if err := st.WritePage(o.scratch, offloadResult); err != nil {
		return err
	}
	return task.Finish(offloadResult)
}

// offloadResult is what every offloadShape program writes and returns;
// the device and the runtime copy it, so offloads share it.
var offloadResult = []byte("result")

// openOffloadTenants opens a device and host-writes four pages for each
// of n tenants: tenant t owns LPAs 4t..4t+3, and its intermediate page is
// LPA 4n+t.
func openOffloadTenants(b *testing.B, opts iceclave.Options, n int) (*iceclave.SSD, []tenantOffload) {
	b.Helper()
	ssd, err := iceclave.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	offloads := make([]tenantOffload, n)
	for t := range offloads {
		o := tenantOffload{Offload: host.Offload{TaskID: uint32(t + 1), Binary: []byte{1}}, scratch: uint32(4*n + t)}
		for k := 0; k < 4; k++ {
			l := uint32(4*t + k)
			if err := ssd.HostWrite(l, []byte("bench")); err != nil {
				b.Fatal(err)
			}
			o.LPAs = append(o.LPAs, l)
		}
		offloads[t] = o
	}
	return ssd, offloads
}

// benchGeometry is the benchmark harness's offload device: 2 channels, 8
// blocks per plane.
var benchGeometry = iceclave.Options{Channels: 2, BlocksPerPlane: 8}

// BenchmarkOffloadRoundTrip measures one offload of the benchmark
// harness's shape (offloadShape), on one goroutine. It runs on the
// harness's device and on Open's default one, with 32 times the logical
// pages. Teardown releases only the pages the TEE owns, so the two should
// cost about the same per offload.
func BenchmarkOffloadRoundTrip(b *testing.B) {
	for _, dev := range []struct {
		name string
		opts iceclave.Options
	}{
		{"bench-geometry", benchGeometry},
		{"default-geometry", iceclave.Options{}},
	} {
		b.Run(dev.name, func(b *testing.B) {
			ssd, offloads := openOffloadTenants(b, dev.opts, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := offloadShape(ssd, offloads[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOffloadBurst is the harness's offload-burst workload at a
// fixed amount of work: one op submits 2,000 offloads of offloadShape,
// round-robin over 32 tenants and the three priority bands, to a
// scheduler sized as the harness sizes it (2 workers, one offload per
// tenant at a time, 12 live TEEs), then closes it. Unlike
// BenchmarkOffloadRoundTrip it includes the scheduler's queueing,
// wake-ups and lock hand-offs between workers, without the harness's
// wall-clock window.
func BenchmarkOffloadBurst(b *testing.B) {
	const (
		tenants = 32
		burst   = 2000
	)
	ssd, offloads := openOffloadTenants(b, benchGeometry, tenants)
	names := make([]string, tenants)
	for t := range names {
		names[t] = fmt.Sprintf("tenant-%02d", t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sched.New(sched.Config{Workers: 2, TenantMaxInFlight: 1, MaxInFlight: 12, QueueDepth: burst})
		for j := 0; j < burst; j++ {
			t := j % tenants
			if _, err := s.Submit(names[t], sched.Priority(j%3), func(context.Context) error {
				return offloadShape(ssd, offloads[t])
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(context.Background()); err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Completed != burst {
			b.Fatalf("%d of %d offloads completed, %d failed", st.Completed, burst, st.Failed)
		}
	}
}
