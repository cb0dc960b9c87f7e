// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the system's stable entry points — colo
// (single-GPU co-location through harness.Run), fleet (multi-GPU through
// harness.RunFleet and the cluster experiment) and serve (a blessd daemon
// over TCP) — measures host time with tracing off, checks that outputs are
// correct, and with -trace 1 reports per-layer metrics from a separate
// traced run. See README.md.
//
//	perfbench -workload colo -seed 1 -seconds 10 -trace 0 -blessd <path>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Failed output checks exit 1 after printing it; errors that prevent a
// measurement exit 2 without printing it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// run carries one invocation's settings and accumulates its results.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	blessd  string
	outDir  string
	self    string
	sp      *spans // nil until the traced phase starts

	attempted, failed int64
	checks            []string // failed output checks
	e2e, layer        map[string]float64
}

// op records n operations of which bad failed.
func (r *run) op(n, bad int64) {
	r.attempted += n
	r.failed += bad
}

// check records one output check; a failure counts as a failed operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// budget is the measured-phase length.
func (r *run) budget() time.Duration { return time.Duration(r.seconds * float64(time.Second)) }

var workloads = map[string]func(*run) error{
	"colo":  runColo,
	"fleet": runFleet,
	"serve": runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: colo, fleet or serve")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase (s)")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		blessd   = flag.String("blessd", "", "blessd binary (serve workload)")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for the traced run's spans")
		child    = flag.String("setup-child", "", "internal: measure one cold set-up of a workload and print seconds")
	)
	flag.Parse()
	if *child != "" {
		if err := setupChild(*child); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload colo|fleet|serve -seed N -seconds S -trace 0|1 [-blessd PATH]")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := &run{
		seed: *seed, seconds: *seconds, traced: *traced == 1,
		blessd: *blessd, outDir: *outDir, self: self,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	r.e2e["success_ratio"] = float64(r.attempted-r.failed) / float64(max(r.attempted, 1))
	if err := r.sp.write(r.outDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		os.Exit(2)
	}
	if r.traced {
		fmt.Printf("== %s seed %d: spans (in-memory, written to %s)\n", *workload, *seed, r.outDir)
		r.sp.printSummary(os.Stdout)
		fmt.Printf("== %s seed %d: per-layer metrics\n", *workload, *seed)
		printTable(r.layer, perLayerCatalog())
	} else {
		fmt.Printf("== %s seed %d: end-to-end metrics\n", *workload, *seed)
		printTable(r.e2e, endToEndCatalog())
	}
	for _, c := range r.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	metrics, err := r.output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.checks) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil { // a metric that is not a number
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if len(r.checks) > 0 {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output selects the metric set of this run's mode and requires every
// catalogued metric to have been measured.
func (r *run) output() (map[string]value, error) {
	got, cat := r.e2e, endToEndCatalog()
	if r.traced {
		got, cat = r.layer, perLayerCatalog()
	}
	out := map[string]value{}
	for _, m := range cat {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.Name)
		}
		out[m.Name] = value{v, m.Unit}
	}
	return out, nil
}

func printTable(vals map[string]float64, cat []metric) {
	fmt.Printf("%-26s %14s %-6s %s\n", "metric", "value", "unit", "moves")
	for _, m := range cat {
		moves := ""
		if m.Moves != "" {
			moves = m.Moves + " on " + m.On
		}
		fmt.Printf("%-26s %14.6g %-6s %s\n", m.Name, vals[m.Name], m.Unit, moves)
	}
}

// peakRSSMB is this process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func init() {
	// Load comes from one process with at most two threads running Go code.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
}
