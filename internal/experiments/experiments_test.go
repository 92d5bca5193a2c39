package experiments

import (
	"strconv"
	"strings"
	"testing"

	"iceclave/internal/core"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

// testSuite uses a reduced scale so the whole experiment matrix stays
// fast under `go test`.
func testSuite() *Suite {
	sc := workload.TinyScale()
	sc.LineitemRows = 20_000
	sc.Accounts = 8_000
	sc.TPCBTxns = 2_000
	sc.StockRows = 8_000
	sc.TPCCTxns = 800
	sc.TextPages = 512
	return NewSuite(sc, core.DefaultConfig())
}

func rows(t *testing.T, tb *stats.Table, err error) [][]string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("%s: empty table", tb.ID)
	}
	return tb.Rows
}

// cellFloat parses a numeric cell that may carry x or % suffixes.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.TrimSuffix(cell, "x"), "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestTable1WriteRatios(t *testing.T) {
	s := testSuite()
	tb, err := s.Table1()
	rs := rows(t, tb, err)
	if len(rs) != 11 {
		t.Fatalf("rows = %d", len(rs))
	}
	// Wordcount must be the most write-intensive measured workload.
	var wc, q1 float64
	for _, r := range rs {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		switch r[0] {
		case "Wordcount":
			wc = v
		case "TPC-H Q1":
			q1 = v
		}
	}
	if wc <= q1 {
		t.Fatalf("wordcount ratio %v not above Q1 %v", wc, q1)
	}
}

func TestTable3Config(t *testing.T) {
	s := testSuite()
	tb := s.Table3()
	if !strings.Contains(tb.String(), "A72") {
		t.Fatal("Table 3 missing processor")
	}
}

// TestExperimentLookup pins the -experiment lookup: an artifact ID in
// any case, padded or not, selects that artifact, and a name All does not
// use — the retired "timing" alias among them — is an error.
func TestExperimentLookup(t *testing.T) {
	s := testSuite()
	tb, err := s.Experiment("  table 3 ")
	if err != nil || tb.ID != "Table 3" {
		t.Fatalf("Experiment(\"  table 3 \") = %v, %v; want Table 3", tb, err)
	}
	for _, name := range []string{"timing", "Figure 99", ""} {
		if _, err := s.Experiment(name); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("Experiment(%q) error = %v, want unknown experiment", name, err)
		}
	}
}

func TestTable5Overheads(t *testing.T) {
	s := testSuite()
	tb, err := s.Table5()
	rs := rows(t, tb, err)
	if len(rs) != 5 {
		t.Fatalf("rows = %d, want 5 overhead sources", len(rs))
	}
	out := tb.String()
	for _, want := range []string{"TEE creation", "Context switch", "Memory verification"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 5 missing %q", want)
		}
	}
}

func TestTable6TrafficShape(t *testing.T) {
	s := testSuite()
	tb, err := s.Table6()
	rs := rows(t, tb, err)
	enc := map[string]float64{}
	for _, r := range rs {
		enc[r[0]] = cellFloat(t, r[1])
	}
	// Table 6 shape: write-intensive workloads incur far more extra
	// traffic than scans.
	if enc["Wordcount"] <= enc["TPC-H Q1"] {
		t.Fatalf("wordcount extra traffic %v not above Q1 %v", enc["Wordcount"], enc["TPC-H Q1"])
	}
	if enc["TPC-H Q1"] > 10 {
		t.Fatalf("Q1 extra encryption traffic = %v%%, want small", enc["TPC-H Q1"])
	}
}

func TestFigure5ProtectedRegionWins(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure5()
	rs := rows(t, tb, err)
	for _, r := range rs {
		// Write-bound workloads barely translate on the read path, so a
		// fraction of a percent of scheduling noise is tolerated.
		if v := cellFloat(t, r[2]); v > 1.005 {
			t.Fatalf("%s: secure-world mapping faster than protected region (%v)", r[0], v)
		}
	}
}

func TestFigure8Ordering(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure8()
	rs := rows(t, tb, err)
	for _, r := range rs {
		sc, hy := cellFloat(t, r[2]), cellFloat(t, r[3])
		if hy < sc {
			t.Fatalf("%s: hybrid (%v) worse than SC-64 (%v)", r[0], hy, sc)
		}
		if hy > 1.0001 {
			t.Fatalf("%s: hybrid faster than non-encryption (%v)", r[0], hy)
		}
	}
}

func TestFigure11Headline(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure11()
	rs := rows(t, tb, err)
	if len(rs) != 11 {
		t.Fatalf("rows = %d", len(rs))
	}
	faster := 0
	for _, r := range rs {
		isc, ice := cellFloat(t, r[3]), cellFloat(t, r[4])
		if isc > ice+1e-9 {
			t.Fatalf("%s: ISC (%v) slower than IceClave (%v)", r[0], isc, ice)
		}
		if ice < 1.0 {
			faster++
		}
	}
	// The majority of workloads must beat the host baseline.
	if faster < 8 {
		t.Fatalf("only %d/11 workloads beat Host", faster)
	}
}

func TestFigure12Scaling(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure12()
	rs := rows(t, tb, err)
	for _, r := range rs {
		lo, hi := cellFloat(t, r[1]), cellFloat(t, r[len(r)-1])
		if hi < lo {
			t.Fatalf("%s: 32-channel speedup %v below 4-channel %v", r[0], hi, lo)
		}
	}
}

func TestFigure13OverheadBound(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure13()
	rs := rows(t, tb, err)
	for _, r := range rs {
		for _, cell := range r[1:] {
			v := cellFloat(t, cell)
			if v > 1.0001 {
				t.Fatalf("%s: IceClave faster than ISC (%v)", r[0], v)
			}
			if v < 0.5 {
				t.Fatalf("%s: IceClave overhead vs ISC exceeds 2x (%v)", r[0], v)
			}
		}
	}
}

func TestFigure14LatencySweep(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure14()
	rs := rows(t, tb, err)
	if len(rs) != 11 || len(rs[0]) != 6 {
		t.Fatalf("figure 14 shape: %dx%d", len(rs), len(rs[0]))
	}
}

func TestFigure15CPUOrdering(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure15()
	rs := rows(t, tb, err)
	for _, r := range rs {
		a77, a72slow := cellFloat(t, r[1]), cellFloat(t, r[3])
		if a77 < a72slow {
			t.Fatalf("%s: A77 (%v) slower than A72@0.8 (%v)", r[0], a77, a72slow)
		}
	}
}

func TestFigure16DRAM(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure16()
	rs := rows(t, tb, err)
	for _, r := range rs {
		iscSmall := cellFloat(t, r[3])
		if iscSmall > 1.01 {
			t.Fatalf("%s: smaller DRAM faster (%v)", r[0], iscSmall)
		}
	}
}

func TestFigure17TwoTenants(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure17()
	rs := rows(t, tb, err)
	if len(rs) != 9 {
		t.Fatalf("rows = %d, want 9 mixes", len(rs))
	}
	for _, r := range rs {
		v := cellFloat(t, r[1])
		if v > 1.01 {
			t.Fatalf("%s: collocation speeds things up (%v)", r[0], v)
		}
		if v < 0.4 {
			t.Fatalf("%s: collocation degradation too extreme (%v)", r[0], v)
		}
	}
}

func TestFigure18FourTenants(t *testing.T) {
	s := testSuite()
	tb, err := s.Figure18()
	rs := rows(t, tb, err)
	if len(rs) != 9 {
		t.Fatalf("rows = %d, want 9 mixes", len(rs))
	}
}

func TestMixLabel(t *testing.T) {
	got := mixLabel([]string{"TPC-C", "TPC-H Q1", "Wordcount"})
	if got != "TC+H1+WC" {
		t.Fatalf("label = %q", got)
	}
}
