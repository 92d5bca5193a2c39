// Package workload adapts the query engine's programs into the form the
// timing layer consumes: each workload is set up and executed once,
// functionally, while a recording store captures its I/O-and-compute trace
// (page reads/writes interleaved with metered instruction and memory-access
// deltas). The timing layer then replays that trace under any execution
// mode — Host, Host+SGX, ISC, IceClave — and any device configuration,
// without re-running the query.
//
// Concurrency contract: recording a Workload is a single-goroutine
// affair, but a recorded Trace is immutable and safe to replay from many
// goroutines at once — that sharing is what lets experiments.Suite fan
// replays of one trace across workers.
package workload

import (
	"fmt"

	"iceclave/internal/query"
)

// Scale sets the generated dataset sizes. The paper populates 32 GB per
// workload (§6.1); simulations scale this down, and Table 1's note prints
// the lineitem row count used. Ratios between tables follow TPC
// conventions.
type Scale struct {
	LineitemRows int // TPC-H and synthetic operators
	Accounts     int // TPC-B
	TPCBTxns     int
	StockRows    int // TPC-C
	TPCCTxns     int
	TextPages    int // Wordcount
	Seed         uint64
}

// TinyScale is for unit tests: a few thousand rows.
func TinyScale() Scale {
	return Scale{LineitemRows: 4000, Accounts: 2000, TPCBTxns: 800,
		StockRows: 2000, TPCCTxns: 400, TextPages: 64, Seed: 42}
}

// SmallScale is the default experiment scale (~20-40 MB of input per
// workload), large enough that load/compute ratios stabilize.
func SmallScale() Scale {
	return Scale{LineitemRows: 120_000, Accounts: 50_000, TPCBTxns: 20_000,
		StockRows: 50_000, TPCCTxns: 8_000, TextPages: 4_096, Seed: 42}
}

// Workload is one of the eleven Table 4 programs, bound to its setup.
type Workload struct {
	// Name as the paper spells it in figures.
	Name string
	// WriteIntensive marks the three workloads the paper calls out as
	// write-heavy (TPC-B, TPC-C, Wordcount).
	WriteIntensive bool
	// PaperWriteRatio is the Table 1 characterization, kept for
	// paper-vs-measured reporting.
	PaperWriteRatio float64

	setup func(store query.Store, sc Scale) (run func(m *query.Meter) (string, error), err error)
}

// Setup generates and stores the workload's dataset on store, returning a
// closure that executes the program.
func (w *Workload) Setup(store query.Store, sc Scale) (func(m *query.Meter) (string, error), error) {
	return w.setup(store, sc)
}

// tpchWorkload wires one TPC-H style program.
func tpchWorkload(name string, paperWR float64, p query.Program) *Workload {
	return &Workload{
		Name:            name,
		PaperWriteRatio: paperWR,
		setup: func(store query.Store, sc Scale) (func(m *query.Meter) (string, error), error) {
			ds := query.GenerateTPCH(sc.LineitemRows, sc.Seed)
			sd, err := ds.Store(store, 0)
			if err != nil {
				return nil, err
			}
			return func(m *query.Meter) (string, error) { return p(store, sd, m) }, nil
		},
	}
}

// Standard returns the eleven evaluation workloads of Table 4, with the
// Table 1 write ratios attached.
func Standard() []*Workload {
	return []*Workload{
		tpchWorkload("Arithmetic", 2.02e-4, query.Arithmetic),
		tpchWorkload("Aggregate", 2.08e-4, query.Aggregate),
		tpchWorkload("Filter", 1.71e-4, query.Filter),
		tpchWorkload("TPC-H Q1", 6.40e-6, query.Q1),
		tpchWorkload("TPC-H Q3", 3.96e-3, query.Q3),
		tpchWorkload("TPC-H Q12", 2.99e-5, query.Q12),
		tpchWorkload("TPC-H Q14", 3.94e-6, query.Q14),
		tpchWorkload("TPC-H Q19", 9.92e-7, query.Q19),
		{
			Name: "TPC-B", WriteIntensive: true, PaperWriteRatio: 5.19e-2,
			setup: func(store query.Store, sc Scale) (func(m *query.Meter) (string, error), error) {
				ref, err := query.SetupAccounts(store, sc.Accounts, 0, sc.Seed)
				if err != nil {
					return nil, err
				}
				histBase := uint32(query.PageCount(query.AccountSchema, sc.Accounts, store.PageSize()) + 16)
				return func(m *query.Meter) (string, error) {
					return query.TPCB(store, ref, histBase, sc.TPCBTxns, sc.Seed+1, m)
				}, nil
			},
		},
		{
			Name: "TPC-C", WriteIntensive: true, PaperWriteRatio: 9.05e-2,
			setup: func(store query.Store, sc Scale) (func(m *query.Meter) (string, error), error) {
				ref, err := query.SetupStock(store, sc.StockRows, 0, sc.Seed)
				if err != nil {
					return nil, err
				}
				olBase := uint32(query.PageCount(query.StockSchema, sc.StockRows, store.PageSize()) + 16)
				return func(m *query.Meter) (string, error) {
					return query.TPCC(store, ref, olBase, sc.TPCCTxns, sc.Seed+2, m)
				}, nil
			},
		},
		{
			Name: "Wordcount", WriteIntensive: true, PaperWriteRatio: 4.61e-1,
			setup: func(store query.Store, sc Scale) (func(m *query.Meter) (string, error), error) {
				if err := query.SetupText(store, sc.TextPages, 0, sc.Seed); err != nil {
					return nil, err
				}
				return func(m *query.Meter) (string, error) {
					return query.Wordcount(store, 0, sc.TextPages, m)
				}, nil
			},
		},
	}
}

// ByName returns the standard workload with the given name.
func ByName(name string) (*Workload, error) {
	for _, w := range Standard() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the standard workload names in figure order.
func Names() []string {
	ws := Standard()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
