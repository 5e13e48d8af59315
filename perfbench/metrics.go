package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricSpec names one metric, its unit, and whether it is host (wall
// clock, this machine) or simulated (virtual time from a pcs.Result).
type metricSpec struct {
	name, unit string
	simulated  bool
}

// endToEnd are the metrics -trace 0 reports for every workload. For the
// simulator workloads a "run" is one replication (pcs.NewSimulation then
// Finish); for serve-store it is one RunSpec submitted to the daemon and
// followed to its end event.
var endToEnd = []metricSpec{
	{name: "req_per_s", unit: "1/s"},
	{name: "setup_s", unit: "s"},
	{name: "runs_per_s", unit: "1/s"},
	{name: "run_latency_p50_ms", unit: "ms"},
	{name: "run_latency_p95_ms", unit: "ms"},
	{name: "allocs_per_req", unit: "count"},
	{name: "alloc_kb_per_req", unit: "KiB"},
	{name: "sim_avg_overall_ms", unit: "ms", simulated: true},
	{name: "sim_p50_overall_ms", unit: "ms", simulated: true},
	{name: "sim_p99_overall_ms", unit: "ms", simulated: true},
	{name: "sim_p99_component_ms", unit: "ms", simulated: true},
}

// perLayer are the metrics -trace 1 reports for every workload; a layer
// the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{name: "sim.events", unit: "count"},
	{name: "sim.ns_per_event", unit: "ns"},
	{name: "sim.pending_max", unit: "count"},
	{name: "sim.hold_ns_per_event", unit: "ns"},
	{name: "pcs.slice_ms_max", unit: "ms"},
	{name: "pcs.finish_ms", unit: "ms"},
	{name: "pcs.merge_us_per_frame", unit: "us"},
	{name: "service.queued_max", unit: "count"},
	{name: "service.busy_mean", unit: "count"},
	{name: "scheduler.intervals", unit: "count"},
	{name: "scheduler.migrations", unit: "count"},
	{name: "scheduler.search_ms", unit: "ms"},
	{name: "scheduler.decisions", unit: "count"},
	{name: "predictor.build_ms", unit: "ms"},
	{name: "profiling.train_ms", unit: "ms"},
	{name: "workload.batch_jobs", unit: "count"},
	{name: "lane.ns_per_event", unit: "ns"},
	{name: "traffic.ns_per_arrival", unit: "ns"},
	{name: "mem.gc_cycles", unit: "count"},
	{name: "mem.gc_pause_ms", unit: "ms"},
	{name: "mem.peak_heap_mb", unit: "MiB"},
	{name: "serve.create_ms", unit: "ms"},
	{name: "serve.first_frame_ms", unit: "ms"},
	{name: "serve.stream_ms", unit: "ms"},
	{name: "serve.frames", unit: "count"},
	{name: "serve.frame_bytes", unit: "B"},
	{name: "serve.store_kb_per_run", unit: "KiB"},
	{name: "serve.overhead_ms", unit: "ms"},
	{name: "trace.overhead_ms", unit: "ms"},
}

// catalog returns the metrics one mode must emit.
func catalog(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func lookupMetric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// zeroLayers sets every per-layer metric in names to 0: the workload does
// not exercise those layers.
func zeroLayers(out *outcome, names ...string) {
	for _, n := range names {
		out.set(n, 0)
	}
}

// env is the environment stamp printed with every output.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func stampEnv(root string) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

// commitOf names the code under test: the git commit when root is a git
// checkout, otherwise "tree-" and a hash of the Go sources and module
// files, so two unpacked trees with the same code get the same stamp.
func commitOf(root string) string {
	if abs, err := filepath.Abs(root); err == nil {
		cmd := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD")
		cmd.Dir = root
		// Only a repository rooted exactly at root names this tree.
		if out, err := cmd.Output(); err == nil {
			if lines := strings.Fields(string(out)); len(lines) == 2 && lines[0] == abs {
				return lines[1]
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just does not enter the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics; vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// windowQuantile splits vals, in the order given, into consecutive windows
// of size values (the last window also takes a remainder shorter than
// size) and returns the median over windows of each window's q-quantile.
// A burst of host contention then moves the result only when it covers
// half the windows.
func windowQuantile(vals []float64, size int, q float64) float64 {
	var per []float64
	for len(vals) > 0 {
		n := size
		if len(vals) < 2*size {
			n = len(vals)
		}
		per = append(per, quantile(vals[:n], q))
		vals = vals[n:]
	}
	return median(per)
}
