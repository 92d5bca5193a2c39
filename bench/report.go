package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// report is the -out file: the settings and every run of each workload,
// with each metric's median and quartiles.
type report struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     int                        `json:"trace"`
	Go        string                     `json:"go"`
	NumCPU    int                        `json:"num_cpu"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Runs    []*result          `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// summary is one metric over a workload's runs. Spread is the distance
// between the quartiles as a share of the median.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarize(runs []*result) map[string]summary {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for n, m := range r.Metrics {
			vals[n] = append(vals[n], m.Value)
			units[n] = m.Unit
		}
	}
	out := make(map[string]summary, len(vals))
	for n, v := range vals {
		q1, med, q3 := quartiles(v)
		s := summary{Unit: units[n], Median: med, Q1: q1, Q3: q3}
		if med != 0 {
			s.Spread = (q3 - q1) / math.Abs(med)
		}
		out[n] = s
	}
	return out
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// agreeFiles compares two -out files of the same settings. A simulated
// metric of a replayed workload must read exactly the same in every run
// of both; any other metric with a bound must have medians within it. It
// returns 1, naming each disagreement, if any.
func agreeFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bad := agreement(a, b, stdout)
	for _, m := range bad {
		fmt.Fprintln(stderr, "bench: disagree:", m)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "agree")
	return 0
}

// agreement returns the disagreements between a and b, printing every
// comparison it makes.
func agreement(a, b *report, stdout io.Writer) []string {
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return []string{fmt.Sprintf("settings differ: seed %d/%d, seconds %g/%g, trace %d/%d",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Trace, b.Trace)}
	}
	var bad []string
	for _, wname := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[wname], b.Workloads[wname]
		w, known := workloadByName(wname)
		if wb == nil || !known {
			bad = append(bad, wname+": missing from one file or unknown")
			continue
		}
		for _, mname := range sortedKeys(wa.Summary) {
			sb, ok := wb.Summary[mname]
			d, declared := lookupMetric(mname)
			if !ok || !declared {
				bad = append(bad, fmt.Sprintf("%s/%s: missing from one file or undeclared", wname, mname))
				continue
			}
			ma, mb := wa.Summary[mname].Median, sb.Median
			switch {
			case d.Simulated && w.replayed:
				want := wa.Runs[0].Metrics[mname].Value
				same := true
				for _, runs := range [][]*result{wa.Runs, wb.Runs} {
					for _, r := range runs {
						same = same && r.Metrics[mname].Value == want
					}
				}
				fmt.Fprintf(stdout, "%-15s %-34s %14.6g %14.6g exact %v\n", wname, mname, ma, mb, same)
				if !same {
					bad = append(bad, fmt.Sprintf("%s/%s: simulated value differs between runs", wname, mname))
				}
			case d.Bound > 0:
				diff := 0.0
				if ma != 0 {
					diff = math.Abs(mb-ma) / math.Abs(ma)
				}
				fmt.Fprintf(stdout, "%-15s %-34s %14.6g %14.6g diff %6.2f%% bound %4.0f%%\n",
					wname, mname, ma, mb, 100*diff, 100*d.Bound)
				if diff > d.Bound {
					bad = append(bad, fmt.Sprintf("%s/%s: medians %g and %g differ by %.1f%%, bound %.0f%%",
						wname, mname, ma, mb, 100*diff, 100*d.Bound))
				}
			}
		}
	}
	return bad
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
