// Command bench is the repository benchmark. It runs six workloads against
// the simulator's public entry points — experiments.Suite,
// core.RunMultiStats, and iceclave.SSD behind sched.Scheduler — checks
// their outputs, and prints every metric by name and unit. The last line
// of output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload W [-seed N] [-seconds S] [-trace 0|1]
//	bench [-workload W] [-runs N] [-out f.json] ...   (each run in a child process)
//	bench -agree a.json b.json
//
// An untraced run reports the end-to-end metrics; -trace 1 reports the
// per-layer ones and writes out/bench-trace-<workload>.json. README.md
// describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: every workload)")
		seed    = fs.Uint64("seed", 42, "seed of every generated input")
		seconds = fs.Float64("seconds", 10, "measurement time of one run")
		trace   = fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
		runs    = fs.Int("runs", 1, "runs per workload, each in a child process")
		out     = fs.String("out", "", "write every run's metrics, with medians and quartiles, to this file")
		agree   = fs.Bool("agree", false, "compare the two -out files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -agree takes two -out files")
			return 2
		}
		return agreeFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds > 0, -runs >= 1 and no arguments")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workloadDef{w}
	}
	o := options{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		size:     fullSizes(),
		traceDir: "out",
	}
	if *name != "" && *runs == 1 && *out == "" {
		return runOne(selected[0], o, stdout, stderr)
	}
	return runChildren(selected, o, *runs, *out, stdout, stderr)
}

// runOne runs a workload in this process and prints its result.
func runOne(w *workloadDef, o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printResult(stdout, w, res)
	for _, c := range res.checks {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, c)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints what the workload's work and operations are, each
// metric on its own line, then the JSON result.
func printResult(stdout io.Writer, w *workloadDef, res *result) {
	workload := w.name
	fmt.Fprintf(stdout, "%-15s work: %s; operation: %s\n", workload, w.work, w.op)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-15s %-34s %16s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Fprintf(stdout, "%-15s attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	data, _ := json.Marshal(res) // plain floats and strings always marshal
	fmt.Fprintln(stdout, string(data))
}

// runChildren runs every selected workload runs times, each run in a
// fresh child process so its heap and peak RSS are its own, and prints a
// combined result with each metric's median under <workload>.<metric>.
func runChildren(selected []*workloadDef, o options, runs int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := &report{Seed: o.seed, Seconds: o.window.Seconds(), Trace: boolInt(o.traced), Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), Workloads: map[string]*workloadReport{}}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		wr := &workloadReport{}
		for i := 0; i < runs; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.window.Seconds(), 'g', -1, 64), "-trace", strconv.Itoa(boolInt(o.traced))}
			res, err := runChild(exe, args, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", w.name, i+1, err)
				return 1
			}
			wr.Runs = append(wr.Runs, res)
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
		}
		wr.Summary = summarize(wr.Runs)
		rep.Workloads[w.name] = wr
		for n, s := range wr.Summary {
			total.Metrics[w.name+"."+n] = metric{Value: s.Median, Unit: s.Unit}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	data, _ := json.Marshal(total) // plain floats and strings always marshal
	fmt.Fprintln(stdout, string(data))
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild runs the benchmark binary with args, passing its output
// through except the final JSON line, which it returns parsed. A child
// that fails its output checks still returns its result.
func runChild(exe string, args []string, stdout, stderr io.Writer) (*result, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	if cut > 0 {
		fmt.Fprintln(stdout, text[:cut])
	}
	var res result
	if err := json.Unmarshal([]byte(text[cut+1:]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("reading result: %w", err)
	}
	return &res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
