// Command perfbench is the repository benchmark. One invocation drives
// one workload through the public entry points of pcs, internal/serve and
// the layer packages, checks that the outputs are correct, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"req_per_s": {"value": 8123.4, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a traced run plus
// drivers that time each layer's public functions on inputs shaped like
// the workload. Spans are kept in memory and written as NDJSON under
// .bench_build/trace when the run ends.
//
// Usage, from the repository root, which is also the tree the benchmark
// measures (run.sh builds it with a checkout-local Go cache):
//
//	bash perfbench/run.sh --workload nutch-pcs --seed 1 --seconds 22 --trace 0
//	bash perfbench/run.sh --workload red3-laned --seed 7003 --trace 1
//	bash perfbench/run.sh --list
//
// The benchmark exits non-zero when any operation fails or any output is
// wrong; it still prints the result line with "correct": false then.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs one workload and prints its report; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "workload seed (see -list for each workload's held-out seed)")
	seconds := fs.Float64("seconds", 22, "measured wall seconds")
	traceMode := fs.Int("trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced run)")
	list := fs.Bool("list", false, "list the workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads() {
			fmt.Fprintf(stdout, "%-18s held-out seed %d\n    %s\n", w.name, w.heldOutSeed, w.why)
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (see -list)\n", *name)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	s := *seed

	env := stampEnv(".")
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", w.name, s, *seconds, *traceMode)
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)

	cfg := runConfig{
		seed:    s,
		seconds: time.Duration(*seconds * float64(time.Second)),
		root:    ".",
		scale:   fullScale,
	}
	var tr *tracer
	if *traceMode == 1 {
		tr = newTracer()
	}
	out := w.run(cfg, tr, stdout)

	if tr != nil {
		tr.writeSelfTimes(stdout)
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.ndjson", w.name, s))
		if err := tr.writeNDJSON(path, env, w.name, s); err != nil {
			out.fail(fmt.Errorf("writing trace: %w", err))
		} else {
			fmt.Fprintf(stdout, "trace: %d spans written to %s\n", tr.len(), path)
		}
	}
	return report(stdout, stderr, out, *traceMode == 1)
}

// report prints the metric table and the final JSON line, and returns the
// exit code: 0 only when every operation succeeded and every metric of
// the mode was emitted.
func report(stdout, stderr io.Writer, out *outcome, traced bool) int {
	for _, spec := range catalog(traced) {
		if _, ok := out.metrics[spec.name]; !ok {
			out.fail(fmt.Errorf("metric %s was not measured", spec.name))
		}
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		clock := ""
		if spec, _ := lookupMetric(n); spec.simulated {
			clock = "(simulated time)"
		}
		fmt.Fprintf(stdout, "  %-26s %16.6f %-6s %s\n", n, m.Value, m.Unit, clock)
	}
	fmt.Fprintf(stdout, "failed_share %.6f (%d of %d operations failed)\n", out.failedShare(), out.failed, out.attempted)
	for _, e := range out.errors {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct() {
		return 1
	}
	return 0
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	root    string
	scale   scale
}

// scale selects workload sizes: fullScale for measurement, tinyScale for
// the self-tests, which only check that every metric is emitted.
type scale int

const (
	fullScale scale = iota
	tinyScale
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates a workload's metrics and the success of each
// benchmark operation (a simulation run, a served run, a cross-check).
type outcome struct {
	metrics           map[string]metric
	attempted, failed int
	errors            []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric; the unit comes from the catalog, so a metric
// always carries the unit BENCHMARK.json declares.
func (o *outcome) set(name string, v float64) {
	spec, ok := lookupMetric(name)
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalog")
	}
	o.metrics[name] = metric{Value: v, Unit: spec.unit}
}

// op records one benchmark operation; a non-nil err counts it as failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.errors = append(o.errors, err.Error())
	}
}

// fail records a failure that is not an operation of its own (a missing
// metric, an unwritable trace).
func (o *outcome) fail(err error) {
	o.failed++
	o.errors = append(o.errors, err.Error())
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

// failedShare is the share of benchmark operations that errored, ended in
// a state other than done, or failed a correctness check.
func (o *outcome) failedShare() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}
