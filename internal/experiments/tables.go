package experiments

import (
	"fmt"

	"iceclave/internal/core"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/stats"
	"iceclave/internal/tee"
	"iceclave/internal/workload"
)

// Table1 reproduces the in-storage workload characterization: the memory
// write ratio of each workload, measured from the functional runs, next
// to the paper's reported value.
func (s *Suite) Table1() (*stats.Table, error) {
	t := &stats.Table{
		ID:     "Table 1",
		Title:  "In-storage workload characterization (memory write ratio)",
		Header: []string{"Workload", "Measured", "Paper", "Read-dominated"},
	}
	ws := workload.Standard()
	rows := make([]rowOut, len(ws))
	err := s.mapIndexed(len(ws), func(i int) error {
		w := ws[i]
		tr, err := s.Trace(w.Name)
		if err != nil {
			return err
		}
		measured := tr.Meter.WriteRatio()
		rows[i] = rowOut{row: []any{w.Name,
			fmt.Sprintf("%.2e", measured),
			fmt.Sprintf("%.2e", w.PaperWriteRatio),
			fmt.Sprint(measured < 0.5)}}
		return nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.AddNote("measured on the scaled dataset (%d lineitem rows); paper uses 32 GB datasets", s.Scale.LineitemRows)
	return t, nil
}

// Table3 prints the simulator configuration in the paper's format.
func (s *Suite) Table3() *stats.Table {
	c := s.Config
	t := &stats.Table{
		ID:     "Table 3",
		Title:  "Computational SSD simulator configuration",
		Header: []string{"Component", "Setting"},
	}
	t.AddRow("SSD Processor", c.StorageCore.Name)
	t.AddRow("Processor cores", c.StorageCores)
	t.AddRow("SSD DRAM", fmt.Sprintf("%d MB", c.DRAMBytes>>20))
	t.AddRow("Flash channels", c.Channels)
	t.AddRow("Organization/channel", "4 chips x 4 dies x 2 planes")
	t.AddRow("Page size", "4 KB")
	t.AddRow("tRD", c.FlashTiming.ReadLatency.String())
	t.AddRow("tPROG", c.FlashTiming.ProgramLatency.String())
	t.AddRow("Channel bandwidth", fmt.Sprintf("%.0f MB/s", c.FlashTiming.ChannelBandwidth/(1<<20)))
	t.AddRow("Counter cache", fmt.Sprintf("%d KB", c.CounterCacheBytes>>10))
	t.AddRow("Host CPU", c.HostCore.Name)
	t.AddRow("PCIe link", fmt.Sprintf("%.1f GB/s, %v/cmd, %d KB payload",
		c.PCIe.BytesPerSec/1e9, c.PCIe.PerCommand, c.PCIe.MaxPayload>>10))
	return t
}

// Table5 reports the TEE overhead sources: the configured Table 5
// constants next to the costs measured from the functional runtime.
func (s *Suite) Table5() (*stats.Table, error) {
	t := &stats.Table{
		ID:     "Table 5",
		Title:  "Overhead source of IceClave",
		Header: []string{"Overhead source", "Paper", "Model"},
	}
	costs := s.Config.Costs
	// Measure the functional runtime's lifecycle costs on a small device.
	geo := flash.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1,
		PlanesPerDie: 1, BlocksPerPlane: 16, PagesPerBlock: 16, PageSize: 4096}
	dev, err := flash.NewDevice(geo, s.Config.FlashTiming)
	if err != nil {
		return nil, err
	}
	f := ftl.New(dev)
	if _, err := f.Write(0, 0, nil); err != nil {
		return nil, err
	}
	rt, err := tee.NewRuntime(f, tee.Options{Costs: costs})
	if err != nil {
		return nil, err
	}
	t0 := rt.Now()
	env, err := rt.CreateTEE(tee.Config{Binary: []byte{1}, LPAs: []ftl.LPA{0}, HeapBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	createTime := rt.Now() - t0
	t1 := rt.Now()
	if err := rt.TerminateTEE(env, nil); err != nil {
		return nil, err
	}
	deleteTime := rt.Now() - t1

	t.AddRow("TEE creation", "95 us", createTime.String())
	t.AddRow("TEE deletion", "58 us", deleteTime.String())
	t.AddRow("Context switch", "3.8 us", costs.WorldSwitch.String())
	t.AddRow("Memory encryption", "102.6 ns", costs.Encrypt.String())
	t.AddRow("Memory verification", "151.2 ns", costs.Verify.String())
	t.AddNote("creation/deletion include the world-switch round trips the runtime performs")
	return t, nil
}

// Table6 reports the extra memory traffic caused by memory encryption and
// integrity verification per workload under the hybrid-counter scheme.
func (s *Suite) Table6() (*stats.Table, error) {
	t := &stats.Table{
		ID:     "Table 6",
		Title:  "Extra memory traffic from encryption / verification (IceClave mode)",
		Header: []string{"Workload", "Encryption", "Verification", "Paper enc", "Paper ver"},
	}
	paper := map[string][2]string{
		"Arithmetic": {"3.05%", "2.27%"},
		"Aggregate":  {"3.06%", "2.26%"},
		"Filter":     {"3.04%", "2.26%"},
		"TPC-H Q1":   {"2.99%", "2.22%"},
		"TPC-H Q3":   {"5.62%", "4.50%"},
		"TPC-H Q12":  {"5.11%", "3.78%"},
		"TPC-H Q14":  {"10.28%", "5.39%"},
		"TPC-H Q19":  {"36.20%", "24.75%"},
		"TPC-B":      {"46.92%", "36.68%"},
		"TPC-C":      {"39.09%", "31.72%"},
		"Wordcount":  {"67.45%", "43.81%"},
	}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		r, err := s.run(name, core.ModeIceClave, nil)
		if err != nil {
			return rowOut{}, err
		}
		p := paper[name]
		return rowOut{row: []any{name,
			stats.Pct(r.MEE.EncryptionOverhead()),
			stats.Pct(r.MEE.VerificationOverhead()),
			p[0], p[1]}}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.AddNote("traffic sampled 1/%d and scaled; see EXPERIMENTS.md for the address-synthesis approximation", s.Config.MEESampling)
	return t, nil
}
