package experiments

import (
	"fmt"

	"iceclave/internal/core"
	"iceclave/internal/stats"
)

// admissionMixes are the four-tenant collocations the timing mode is
// evaluated on — a representative slice of the Figure 18 matrix.
var admissionMixes = [][]string{
	{"TPC-C", "Aggregate", "Arithmetic", "Filter"},
	{"TPC-C", "TPC-H Q1", "TPC-H Q3", "TPC-H Q12"},
	{"TPC-B", "TPC-H Q12", "TPC-H Q14", "TPC-H Q19"},
	{"TPC-H Q1", "TPC-H Q3", "TPC-H Q14", "TPC-H Q19"},
}

// admissionSlots is the cap the table applies: half the tenants of a
// four-tenant mix run while the rest queue, the contended regime the
// 15-ID limit of §4.3 produces at scale.
const admissionSlots = 2

// AdmissionTiming is the Figure 17/18-style multi-tenant timing table for
// the scheduler-driven timing mode: each four-tenant mix replays once
// uncapped and once with the sched admission gate limiting concurrent
// tenants, all on one virtual-time backbone. Queueing delay from
// admission control appears in the same simulated clock as flash and
// compute time — the per-tenant waits and the throughput cost of the cap
// are read straight out of core.Result.
func (s *Suite) AdmissionTiming() (*stats.Table, error) {
	t := &stats.Table{
		ID: "Timing 1",
		Title: fmt.Sprintf("Multi-tenant timing under admission control (%d of 4 tenants admitted)",
			admissionSlots),
		Header: []string{"Mix", "Mean queue (ms)", "Max queue (ms)",
			"Queued tenants", "Total vs uncapped"},
	}
	rows := make([]rowOut, len(admissionMixes))
	err := s.mapIndexed(len(admissionMixes), func(i int) error {
		mix := admissionMixes[i]
		var totalPages int64
		for _, name := range mix {
			tr, err := s.Trace(name)
			if err != nil {
				return err
			}
			totalPages += core.Footprint(tr)
		}
		// Sizing matches multiTenant's formula, so the uncapped run of a
		// mix Figure 18 also replays is a memo hit, not a second replay.
		cfg := s.Config
		cfg.MinFlashPages = totalPages
		free, err := s.runMulti(mix, core.ModeIceClave, cfg)
		if err != nil {
			return err
		}
		cfg.AdmissionSlots = admissionSlots
		capped, err := s.runMulti(mix, core.ModeIceClave, cfg)
		if err != nil {
			return err
		}
		var meanQ, maxQ, slow float64
		queued := 0
		for j := range capped {
			q := float64(capped[j].QueueDelay) / 1e6
			meanQ += q / float64(len(capped))
			if q > maxQ {
				maxQ = q
			}
			if capped[j].QueueDelay > 0 {
				queued++
			}
			slow += float64(capped[j].Total) / float64(free[j].Total) / float64(len(capped))
		}
		rows[i] = rowOut{
			row: []any{mixLabel(mix), fmt.Sprintf("%.2f", meanQ), fmt.Sprintf("%.2f", maxQ),
				fmt.Sprintf("%d/%d", queued, len(mix)), stats.Ratio(slow)},
			aux: []float64{meanQ},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.AddNote("admission caps reach the simulated clock: queueing delay is part of each tenant's Result, "+
		"mean across mixes %.2f ms", sumAux(rows, 0)/float64(len(rows)))
	t.AddNote("a ratio below 1x means serializing tenants cost less than the device contention it removed")
	return t, nil
}
