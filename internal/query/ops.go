package query

import "fmt"

// Instruction cost constants: calibrated per-row costs for the operator
// kernels, in retired instructions. They drive the compute-time model; the
// absolute values matter less than their ratios (probing a hash table
// costs more than evaluating a predicate, and so on).
const (
	InstrRowDecode = 6  // unpack one fixed-width row
	InstrPredicate = 4  // evaluate one comparison
	InstrHashBuild = 30 // insert into a join hash table
	InstrHashProbe = 22 // probe a join hash table
	InstrAggUpdate = 12 // update one aggregate bucket
	InstrEmit      = 10 // materialize one output row
	InstrArith     = 3  // one arithmetic operation on a column value
	InstrWordStep  = 2  // per input byte of text tokenization
)

// Scanner streams a stored table's rows through a callback, metering page
// reads, decode work, and memory traffic.
type Scanner struct {
	Store Store
	Ref   TableRef
	Meter *Meter
}

// Scan invokes fn for every row. Scanning stops on the first error.
func (sc *Scanner) Scan(fn func(Row) error) error {
	ps := sc.Store.PageSize()
	rpp := RowsPerPage(sc.Ref.Schema, ps)
	rowSize := sc.Ref.Schema.RowSize()
	base, npages := sc.Ref.PageSpan(ps)
	remaining := sc.Ref.NRows
	for p := 0; p < npages; p++ {
		data, err := sc.Store.ReadPage(base + uint32(p))
		if err != nil {
			return fmt.Errorf("query: scan of %d rows: %w", sc.Ref.NRows, err)
		}
		sc.Meter.PagesRead++
		sc.Meter.ReadBytes(int64(ps))
		n := rpp
		if remaining < n {
			n = remaining
		}
		for i := 0; i < n; i++ {
			row := DecodeRow(sc.Ref.Schema, data[i*rowSize:])
			sc.Meter.RowsScanned++
			sc.Meter.AddInstr(InstrRowDecode)
			if err := fn(row); err != nil {
				return err
			}
		}
		remaining -= n
	}
	return nil
}

// HashJoin joins the probe side against a built hash table on int64 keys,
// the equi-join shape every TPC-H query here uses.
type HashJoin struct {
	Meter *Meter
	table map[int64][]Row
}

// NewHashJoin returns an empty join.
func NewHashJoin(m *Meter) *HashJoin {
	return &HashJoin{Meter: m, table: make(map[int64][]Row)}
}

// Build inserts a build-side row under key.
func (j *HashJoin) Build(key int64, r Row) {
	j.table[key] = append(j.table[key], r)
	j.Meter.AddInstr(InstrHashBuild)
	j.Meter.WriteBytes(int64(r.schema.RowSize()) + 8)
	j.Meter.Allocate(int64(r.schema.RowSize()) + 8)
}

// Probe looks up the matches for key.
func (j *HashJoin) Probe(key int64) []Row {
	j.Meter.AddInstr(InstrHashProbe)
	j.Meter.ReadBytes(16)
	rows := j.table[key]
	if len(rows) > 0 {
		j.Meter.ReadBytes(int64(len(rows) * rows[0].schema.RowSize()))
	}
	return rows
}

// Agg is one aggregate bucket: running sums, counts, min/max.
type Agg struct {
	Count int64
	Sums  []float64
}

// Aggregator groups rows by a string key and maintains nsums running sums
// per group.
type Aggregator struct {
	Meter  *Meter
	nsums  int
	groups map[string]*Agg
}

// NewAggregator returns an aggregator with nsums sums per group.
func NewAggregator(m *Meter, nsums int) *Aggregator {
	return &Aggregator{Meter: m, nsums: nsums, groups: make(map[string]*Agg)}
}

// Update adds vals (len nsums) into key's bucket. Memory traffic is
// charged only on bucket creation: live aggregation state is small and
// cache-resident, so repeated updates never reach DRAM — which is why the
// Table 1 write ratios of scan/aggregate workloads are in the 1e-4 range.
func (a *Aggregator) Update(key string, vals ...float64) {
	g, ok := a.groups[key]
	if !ok {
		g = &Agg{Sums: make([]float64, a.nsums)}
		a.groups[key] = g
		a.Meter.ReadBytes(int64(16 + 8*a.nsums))
		a.Meter.WriteBytes(int64(16 + 8*a.nsums))
		a.Meter.Allocate(int64(16 + 8*a.nsums))
	}
	g.Count++
	for i, v := range vals {
		g.Sums[i] += v
	}
	a.Meter.AddInstr(InstrAggUpdate + InstrArith*int64(len(vals)))
}

// Get returns key's bucket, or nil.
func (a *Aggregator) Get(key string) *Agg { return a.groups[key] }

// Each visits every (key, bucket) pair in unspecified order.
func (a *Aggregator) Each(fn func(key string, g *Agg)) {
	for k, g := range a.groups {
		fn(k, g)
		a.Meter.AddInstr(InstrEmit)
	}
}
