package experiments

import (
	"fmt"

	"iceclave/internal/core"
	"iceclave/internal/cpu"
	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

// Figure5 compares IceClave against the variant that keeps the FTL
// mapping table in the secure world, forcing a world-switch round trip on
// every translation (the paper reports the protected region wins by 21.6%
// on average).
func (s *Suite) Figure5() (*stats.Table, error) {
	t := &stats.Table{
		ID:     "Figure 5",
		Title:  "Mapping table in protected region vs secure world (normalized to IceClave)",
		Header: []string{"Workload", "IceClave", "Map-in-secure-world", "Win"},
	}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		base, err := s.run(name, core.ModeIceClave, nil)
		if err != nil {
			return rowOut{}, err
		}
		sec, err := s.run(name, core.ModeIceClave, func(c *core.Config) { c.SecureWorldMapping = true })
		if err != nil {
			return rowOut{}, err
		}
		norm := float64(base.Total) / float64(sec.Total)
		return rowOut{
			row: []any{name, "1.000", fmt.Sprintf("%.3f", norm),
				stats.Pct(float64(sec.Total-base.Total) / float64(sec.Total))},
			aux: []float64{float64(sec.Total)/float64(base.Total) - 1},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.AddNote("average improvement from the protected region: %s (paper: 21.6%%)",
		stats.Pct(sumAux(rows, 0)/float64(len(rows))))
	return t, nil
}

// Figure8 compares the DRAM protection schemes: no encryption, SC-64
// split counters, and IceClave's hybrid counters, normalized to the
// non-encrypted run.
func (s *Suite) Figure8() (*stats.Table, error) {
	t := &stats.Table{
		ID:     "Figure 8",
		Title:  "Memory protection schemes (performance normalized to Non-Encryption)",
		Header: []string{"Workload", "Non-Encryption", "SC-64", "IceClave"},
	}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		none, err := s.run(name, core.ModeIceClave, func(c *core.Config) { c.MEEMode = mee.ModeNone })
		if err != nil {
			return rowOut{}, err
		}
		sc, err := s.run(name, core.ModeIceClave, func(c *core.Config) { c.MEEMode = mee.ModeSplit64 })
		if err != nil {
			return rowOut{}, err
		}
		hy, err := s.run(name, core.ModeIceClave, func(c *core.Config) { c.MEEMode = mee.ModeHybrid })
		if err != nil {
			return rowOut{}, err
		}
		return rowOut{
			row: []any{name, "1.000",
				fmt.Sprintf("%.3f", float64(none.Total)/float64(sc.Total)),
				fmt.Sprintf("%.3f", float64(none.Total)/float64(hy.Total))},
			aux: []float64{float64(sc.Total)/float64(hy.Total) - 1},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.AddNote("hybrid counters improve on SC-64 by %s on average (paper: 43%% on memory-bound phases)",
		stats.Pct(sumAux(rows, 0)/float64(len(rows))))
	return t, nil
}

// Figure11 is the headline comparison: Host, Host+SGX, ISC, and IceClave
// with the load/compute/security breakdown, normalized to Host.
func (s *Suite) Figure11() (*stats.Table, error) {
	t := &stats.Table{
		ID:    "Figure 11",
		Title: "Performance of Host, Host+SGX, ISC, IceClave (normalized to Host; breakdown in ms)",
		Header: []string{"Workload", "Host", "Host+SGX", "ISC", "IceClave",
			"IC-load", "IC-compute", "IC-memsec", "IC-tee"},
	}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		host, err := s.run(name, core.ModeHost, nil)
		if err != nil {
			return rowOut{}, err
		}
		sgx, err := s.run(name, core.ModeHostSGX, nil)
		if err != nil {
			return rowOut{}, err
		}
		isc, err := s.run(name, core.ModeISC, nil)
		if err != nil {
			return rowOut{}, err
		}
		ice, err := s.run(name, core.ModeIceClave, nil)
		if err != nil {
			return rowOut{}, err
		}
		norm := func(r core.Result) string {
			return fmt.Sprintf("%.3f", float64(r.Total)/float64(host.Total))
		}
		ms := func(d sim.Duration) string { return fmt.Sprintf("%.2f", float64(d)/1e6) }
		return rowOut{
			row: []any{name, "1.000", norm(sgx), norm(isc), norm(ice),
				ms(ice.LoadTime), ms(ice.ComputeTime), ms(ice.SecurityTime), ms(ice.TEETime)},
			aux: []float64{
				ice.SpeedupOver(host),
				ice.SpeedupOver(sgx),
				float64(ice.Total-isc.Total) / float64(isc.Total),
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	fn := float64(len(rows))
	t.AddNote("IceClave vs Host: %.2fx avg speedup (paper: 2.31x)", sumAux(rows, 0)/fn)
	t.AddNote("IceClave vs Host+SGX: %.2fx avg speedup (paper: 2.38x)", sumAux(rows, 1)/fn)
	t.AddNote("IceClave overhead vs ISC: %s avg (paper: 7.6%%)", stats.Pct(sumAux(rows, 2)/fn))
	return t, nil
}

// channelSweep runs the channel-count sensitivity for the given baseline.
func (s *Suite) channelSweep(id, title string, baseline core.Mode, invert bool) (*stats.Table, error) {
	channels := []int{4, 8, 16, 32}
	header := []string{"Workload"}
	for _, ch := range channels {
		header = append(header, fmt.Sprintf("%d ch", ch))
	}
	t := &stats.Table{ID: id, Title: title, Header: header}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		row := []any{name}
		for _, ch := range channels {
			ch := ch
			base, err := s.run(name, baseline, func(c *core.Config) { c.Channels = ch })
			if err != nil {
				return rowOut{}, err
			}
			ice, err := s.run(name, core.ModeIceClave, func(c *core.Config) { c.Channels = ch })
			if err != nil {
				return rowOut{}, err
			}
			v := ice.SpeedupOver(base)
			if invert {
				// Figure 13 plots IceClave relative to ISC (<=1).
				row = append(row, fmt.Sprintf("%.3f", v))
			} else {
				row = append(row, stats.Ratio(v))
			}
		}
		return rowOut{row: row}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// Figure12 sweeps the internal bandwidth (channel count) against Host.
func (s *Suite) Figure12() (*stats.Table, error) {
	return s.channelSweep("Figure 12",
		"IceClave speedup vs Host across flash channel counts", core.ModeHost, false)
}

// Figure13 sweeps the channel count against ISC (values <= 1; the gap is
// IceClave's security overhead).
func (s *Suite) Figure13() (*stats.Table, error) {
	return s.channelSweep("Figure 13",
		"IceClave performance normalized to ISC across channel counts", core.ModeISC, true)
}

// Figure14 sweeps the flash read latency from ultra-low-latency (10 µs)
// to commodity TLC (110 µs), reporting speedup over Host.
func (s *Suite) Figure14() (*stats.Table, error) {
	lats := []int{10, 20, 50, 80, 110}
	header := []string{"Workload"}
	for _, l := range lats {
		header = append(header, fmt.Sprintf("%dus", l))
	}
	t := &stats.Table{ID: "Figure 14", Title: "IceClave speedup vs Host across flash read latencies", Header: header}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		row := []any{name}
		for _, l := range lats {
			l := l
			mut := func(c *core.Config) { c.FlashTiming.ReadLatency = sim.Duration(l) * sim.Microsecond }
			host, err := s.run(name, core.ModeHost, mut)
			if err != nil {
				return rowOut{}, err
			}
			ice, err := s.run(name, core.ModeIceClave, mut)
			if err != nil {
				return rowOut{}, err
			}
			row = append(row, stats.Ratio(ice.SpeedupOver(host)))
		}
		return rowOut{row: row}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// Figure15 sweeps the in-storage processor model, reporting speedup over
// the host baseline.
func (s *Suite) Figure15() (*stats.Table, error) {
	cores := []cpu.Core{cpu.CortexA77, cpu.CortexA72, cpu.CortexA72Slow, cpu.CortexA53}
	header := []string{"Workload"}
	for _, c := range cores {
		header = append(header, c.Name)
	}
	t := &stats.Table{ID: "Figure 15", Title: "IceClave speedup vs Host across in-storage processors", Header: header}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		host, err := s.run(name, core.ModeHost, nil)
		if err != nil {
			return rowOut{}, err
		}
		row := []any{name}
		for _, c := range cores {
			c := c
			ice, err := s.run(name, core.ModeIceClave, func(cf *core.Config) { cf.StorageCore = c })
			if err != nil {
				return rowOut{}, err
			}
			row = append(row, stats.Ratio(ice.SpeedupOver(host)))
		}
		return rowOut{row: row}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// Figure16 halves the controller DRAM. The paper's 32 GB datasets exceed
// 4 GB of DRAM; at simulation scale the DRAM is set proportional to the
// dataset (1.5x and 0.75x) to preserve the fits/does-not-fit relation.
func (s *Suite) Figure16() (*stats.Table, error) {
	t := &stats.Table{
		ID:     "Figure 16",
		Title:  "Impact of SSD DRAM capacity (normalized to ISC with large DRAM)",
		Header: []string{"Workload", "ISC 4GB-eq", "IceClave 4GB-eq", "ISC 2GB-eq", "IceClave 2GB-eq"},
	}
	rows, err := s.forEachRow(func(name string) (rowOut, error) {
		tr, err := s.Trace(name)
		if err != nil {
			return rowOut{}, err
		}
		dataset := uint64(tr.SetupPages) * 4096
		big := func(c *core.Config) { c.DRAMBytes = dataset*3/2 + (8 << 20) }
		small := func(c *core.Config) { c.DRAMBytes = dataset*3/4 + (8 << 20) }
		iscBig, err := s.run(name, core.ModeISC, big)
		if err != nil {
			return rowOut{}, err
		}
		iceBig, err := s.run(name, core.ModeIceClave, big)
		if err != nil {
			return rowOut{}, err
		}
		iscSmall, err := s.run(name, core.ModeISC, small)
		if err != nil {
			return rowOut{}, err
		}
		iceSmall, err := s.run(name, core.ModeIceClave, small)
		if err != nil {
			return rowOut{}, err
		}
		norm := func(r core.Result) string {
			return fmt.Sprintf("%.3f", float64(iscBig.Total)/float64(r.Total))
		}
		return rowOut{row: []any{name, "1.000", norm(iceBig), norm(iscSmall), norm(iceSmall)}}, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.AddNote("DRAM scaled with the dataset (1.5x / 0.75x) to preserve the capacity relation of 4GB/2GB vs 32GB data")
	return t, nil
}

// multiTenant replays a mix concurrently and reports the mean normalized
// performance (solo time / collocated time) across instances. The mixes
// themselves are independent replays, so they spread across the suite's
// workers.
func (s *Suite) multiTenant(id, title string, mixes [][]string) (*stats.Table, error) {
	t := &stats.Table{ID: id, Title: title, Header: []string{"Mix", "Normalized perf"}}
	rows := make([]rowOut, len(mixes))
	err := s.mapIndexed(len(mixes), func(i int) error {
		mix := mixes[i]
		var traces []*workload.Trace
		for _, name := range mix {
			tr, err := s.Trace(name)
			if err != nil {
				return err
			}
			traces = append(traces, tr)
		}
		// Solo and collocated runs execute on identical hardware: the
		// device is sized for the whole mix in both cases. Solo runs go
		// through the memo, so mixes sharing a sizing replay them once.
		cfg := s.Config
		cfg.MinFlashPages = core.Footprint(traces...)
		solo := make([]core.Result, len(mix))
		for j, name := range mix {
			r, err := s.runCfg(name, core.ModeIceClave, cfg)
			if err != nil {
				return err
			}
			solo[j] = r
		}
		colo, err := s.runMulti(mix, core.ModeIceClave, cfg)
		if err != nil {
			return err
		}
		var sum float64
		for j := range colo {
			sum += float64(solo[j].Total) / float64(colo[j].Total)
		}
		rows[i] = rowOut{row: []any{mixLabel(mix), fmt.Sprintf("%.3f", sum/float64(len(colo)))}}
		return nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// mixLabel abbreviates a workload mix the way the paper's x-axis does
// (TC+AG, TB+H1+H3+H12, ...).
func mixLabel(mix []string) string {
	abbr := map[string]string{
		"Arithmetic": "AR", "Aggregate": "AG", "Filter": "FI",
		"TPC-H Q1": "H1", "TPC-H Q3": "H3", "TPC-H Q12": "H12",
		"TPC-H Q14": "H14", "TPC-H Q19": "H19",
		"TPC-B": "TB", "TPC-C": "TC", "Wordcount": "WC",
	}
	out := ""
	for i, m := range mix {
		if i > 0 {
			out += "+"
		}
		out += abbr[m]
	}
	return out
}

// Figure17 collocates TPC-C with each other workload (two tenants).
func (s *Suite) Figure17() (*stats.Table, error) {
	mixes := [][]string{
		{"TPC-C", "Aggregate"}, {"TPC-C", "Arithmetic"}, {"TPC-C", "Filter"},
		{"TPC-C", "TPC-H Q1"}, {"TPC-C", "TPC-H Q3"}, {"TPC-C", "TPC-H Q12"},
		{"TPC-C", "TPC-H Q14"}, {"TPC-C", "TPC-H Q19"}, {"TPC-C", "TPC-B"},
	}
	return s.multiTenant("Figure 17", "Two concurrent IceClave instances (normalized to solo)", mixes)
}

// Figure18 runs the paper's four-tenant mixes.
func (s *Suite) Figure18() (*stats.Table, error) {
	mixes := [][]string{
		{"TPC-C", "Aggregate", "Arithmetic", "Filter"},
		{"TPC-C", "TPC-H Q1", "TPC-H Q3", "TPC-H Q12"},
		{"TPC-C", "TPC-H Q12", "TPC-H Q14", "TPC-H Q19"},
		{"TPC-C", "TPC-B", "Aggregate", "TPC-H Q1"},
		{"TPC-B", "Aggregate", "Arithmetic", "Filter"},
		{"TPC-B", "TPC-H Q1", "TPC-H Q3", "TPC-H Q12"},
		{"TPC-B", "TPC-H Q12", "TPC-H Q14", "TPC-H Q19"},
		{"TPC-H Q1", "TPC-H Q3", "TPC-H Q12", "TPC-H Q14"},
		{"TPC-H Q3", "TPC-H Q12", "TPC-H Q14", "TPC-H Q19"},
	}
	return s.multiTenant("Figure 18", "Four concurrent IceClave instances (normalized to solo)", mixes)
}
