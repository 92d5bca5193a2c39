// Package iceclave's root benchmarks regenerate the paper's evaluation
// artifacts, one benchmark per table and figure (each calls the Suite
// method that `iceclave-bench -experiment` names), plus the functional
// offload round trip. Run with: go test -bench=. -benchmem
package iceclave_test

import (
	"testing"

	"iceclave"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/host"
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

// BenchmarkOffloadRoundTrip measures the functional offload path in the
// shape of the benchmark harness's offloads: TEE creation over four
// host-written pages, a permission-checked encrypted read of each, one
// write that adopts an intermediate page, and termination. It runs on the
// harness's device (2 channels, 8 blocks per plane) and on Open's default
// one, with 32 times the logical pages. Teardown releases only the pages
// the TEE owns, so the two should cost about the same per offload.
func BenchmarkOffloadRoundTrip(b *testing.B) {
	for _, dev := range []struct {
		name string
		opts iceclave.Options
	}{
		{"bench-geometry", iceclave.Options{Channels: 2, BlocksPerPlane: 8}},
		{"default-geometry", iceclave.Options{}},
	} {
		b.Run(dev.name, func(b *testing.B) {
			ssd, err := iceclave.Open(dev.opts)
			if err != nil {
				b.Fatal(err)
			}
			o := host.Offload{TaskID: 1, Binary: []byte{1}, LPAs: []uint32{0, 1, 2, 3}}
			for _, l := range o.LPAs {
				if err := ssd.HostWrite(l, []byte("bench")); err != nil {
					b.Fatal(err)
				}
			}
			const scratch = 4 // unowned until the program's write adopts it
			out := []byte("result")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task, err := ssd.OffloadCode(o)
				if err != nil {
					b.Fatal(err)
				}
				st := task.Store()
				for _, l := range o.LPAs {
					if _, err := st.ReadPage(l); err != nil {
						b.Fatal(err)
					}
				}
				if err := st.WritePage(scratch, out); err != nil {
					b.Fatal(err)
				}
				if err := task.Finish(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
