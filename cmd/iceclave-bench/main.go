// iceclave-bench regenerates every table and figure of the paper's
// evaluation section and prints them as text tables (optionally CSV).
//
// Each experiment's independent replays run across GOMAXPROCS worker
// goroutines and results are memoized by (workload, mode, config); the
// tables are byte-identical to a serial, unmemoized run
// (experiments.TestParallelMatchesSerial). Performance is measured by the
// repository benchmark in bench/ (see docs/BENCHMARKS.md).
//
// Usage:
//
//	iceclave-bench [-experiment "Figure 11"] [-csv] [-rows N] [-cpuprofile out.pprof]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

func main() {
	var (
		exp     = flag.String("experiment", "", "regenerate only the named experiment (e.g. \"Figure 11\", \"Table 6\")")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		rows    = flag.Int("rows", 0, "override lineitem row count (dataset scale)")
		cpuprof = flag.String("cpuprofile", "", "profile the serial evaluation suite: write a CPU pprof of one full All() pass to this file (make profile)")
	)
	flag.Parse()

	if *cpuprof != "" {
		if err := runProfile(*rows, *cpuprof); err != nil {
			log.Fatal(err)
		}
		return
	}

	sc := workload.SmallScale()
	if *rows > 0 {
		sc.LineitemRows = *rows
	}
	suite := experiments.NewSuite(sc, core.DefaultConfig()).SetWorkers(runtime.GOMAXPROCS(0))

	var tables []*stats.Table
	if *exp == "" {
		all, err := suite.All()
		if err != nil {
			log.Fatal(err)
		}
		tables = all
	} else {
		tb, err := one(suite, *exp)
		if err != nil {
			log.Fatal(err)
		}
		tables = []*stats.Table{tb}
	}
	for _, tb := range tables {
		if *csv {
			fmt.Fprint(os.Stdout, tb.CSV())
		} else {
			fmt.Println(tb.String())
		}
	}
}

// runProfile records a CPU pprof of the serial evaluation suite: traces
// are warmed first (so the profile measures replay, not trace recording),
// then one full All() pass runs under the profiler — the ground truth
// behind any hot-path claim (see make profile).
func runProfile(rows int, outPath string) error {
	sc := workload.SmallScale()
	if rows > 0 {
		sc.LineitemRows = rows
	}
	suite := experiments.NewSuite(sc, core.DefaultConfig()).SetMemoize(false)
	fmt.Fprintf(os.Stderr, "recording workload traces...\n")
	for _, name := range workload.Names() {
		if _, err := suite.Trace(name); err != nil {
			return err
		}
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(os.Stderr, "profiling one serial suite pass...\n")
	start := time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	_, err = suite.All()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	fmt.Printf("profiled %.1fs of serial suite into %s\n", time.Since(start).Seconds(), outPath)
	return nil
}

func one(s *experiments.Suite, name string) (*stats.Table, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "table 1":
		return s.Table1()
	case "table 3":
		return s.Table3(), nil
	case "table 5":
		return s.Table5()
	case "table 6":
		return s.Table6()
	case "figure 5":
		return s.Figure5()
	case "figure 8":
		return s.Figure8()
	case "figure 11":
		return s.Figure11()
	case "figure 12":
		return s.Figure12()
	case "figure 13":
		return s.Figure13()
	case "figure 14":
		return s.Figure14()
	case "figure 15":
		return s.Figure15()
	case "figure 16":
		return s.Figure16()
	case "figure 17":
		return s.Figure17()
	case "figure 18":
		return s.Figure18()
	case "timing", "timing 1":
		return s.AdmissionTiming()
	case "trace", "timing 2":
		return s.TraceTiming()
	case "fault":
		return s.FaultTiming()
	case "fleet":
		return s.FleetTiming()
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}
