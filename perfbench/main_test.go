package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/pcs"
)

// repoRoot is the repository the benchmark measures, relative to this
// package's directory.
const repoRoot = ".."

// TestTinyPassEmitsEveryMetric runs every workload at tiny size, untraced
// and traced, and checks that each metric of the mode is emitted with the
// catalog's unit, that every operation succeeded, and that the result
// line has exactly the keys the benchmark contract names.
func TestTinyPassEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				cfg := runConfig{seed: 1, seconds: 300 * time.Millisecond, root: repoRoot, scale: tinyScale}
				out := w.run(cfg, tr, io.Discard)
				var stdout, stderr bytes.Buffer
				if code := report(&stdout, &stderr, out, traced); code != 0 {
					t.Fatalf("exit code %d:\n%s", code, stderr.String())
				}
				for _, spec := range catalog(traced) {
					m, ok := out.metrics[spec.name]
					if !ok {
						t.Errorf("metric %s missing", spec.name)
					} else if m.Unit != spec.unit {
						t.Errorf("metric %s has unit %q, want %q", spec.name, m.Unit, spec.unit)
					}
				}
				if len(out.metrics) != len(catalog(traced)) {
					t.Errorf("emitted %d metrics, the mode has %d", len(out.metrics), len(catalog(traced)))
				}
				if traced && tr.len() == 0 {
					t.Errorf("traced run recorded no spans")
				}
				checkResultLine(t, stdout.String(), true)
			})
		}
	}
}

// checkResultLine parses the last line of a run's output and checks its
// keys and its correct flag.
func checkResultLine(t *testing.T, output string, wantCorrect bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(output), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
	var correct bool
	if err := json.Unmarshal(res["correct"], &correct); err != nil || correct != wantCorrect {
		t.Errorf("correct = %s, want %v", res["correct"], wantCorrect)
	}
}

// TestMismatchedReportIsCounted proves the correctness checks can fail:
// served frames that merge to another spec's report, a repeat whose
// Result differs, and a Result that loses a request each count as a
// failed operation and fail the command.
func TestMismatchedReportIsCounted(t *testing.T) {
	spec := pcs.RunSpec{Technique: "Basic", Nodes: 8, SearchComponents: 12, Requests: 30, Replications: 2, Workers: 1, Seed: 3}
	agg, err := spec.Report()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference{spec: spec, agg: agg, json: want}

	framesOf := func(s pcs.RunSpec) []byte {
		o, err := s.Options()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pcs.RunManyStream(o, s.Replications, 1, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	other := spec
	other.Seed = 4

	out := newOutcome()
	verify(out, []servedRun{{spec: 0, frames: framesOf(spec)}, {spec: 0, frames: framesOf(other)}}, []reference{ref})
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want the mismatched run alone counted as failed", out.attempted, out.failed)
	}

	res, err := pcs.Run(func() pcs.Options { o, _ := spec.Options(); return o }())
	if err != nil {
		t.Fatal(err)
	}
	out.op(checkResult("identical repeat", res, &res))
	changed := res
	changed.OverallP99Ms += 0.001
	out.op(checkResult("changed repeat", changed, &res))
	lost := res
	lost.Completed--
	out.op(checkResult("lost request", lost, nil))
	if out.attempted != 5 || out.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 5 and 3", out.attempted, out.failed)
	}
	if got := out.failedShare(); got != 3.0/5 {
		t.Errorf("failed_share = %v, want 0.6", got)
	}

	var stdout bytes.Buffer
	if code := report(&stdout, io.Discard, out, false); code == 0 {
		t.Errorf("a run with failed operations exited 0")
	}
	checkResultLine(t, stdout.String(), false)
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// benchmark's consumers read, in step with the metrics and workloads the
// code emits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name+": "+w.why)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	if strings.Join(names, "\n") != strings.Join(declared, "\n") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", declared, names)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		specs    []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code emits %d", c.what, len(c.declared), len(c.specs))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.specs[i].name || m.Unit != c.specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)",
					c.what, i, m.Name, m.Unit, c.specs[i].name, c.specs[i].unit)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if got := median(vals); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(vals, 0.95); math.Abs(got-3.85) > 1e-12 {
		t.Errorf("p95 = %v, want 3.85", got)
	}
	if vals[0] != 4 {
		t.Errorf("quantile reordered its input")
	}
}

// TestWindowQuantileIgnoresABurst pins that one slow window among three
// does not move the windowed quantile, and that a remainder shorter than
// a window joins the last one.
func TestWindowQuantileIgnoresABurst(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 100, 200, 300, 400, 1, 2, 3, 4, 9}
	// Windows {1,2,3,4}, {100,...,400}, {1,2,3,4,9}: medians 2.5, 250, 3.
	if got := windowQuantile(vals, 4, 0.5); got != 3 {
		t.Errorf("windowed median = %v, want 3", got)
	}
	if got := windowQuantile(vals[:3], 4, 0.5); got != 2 {
		t.Errorf("windowed median of a short input = %v, want its median 2", got)
	}
}

// TestFoldEqualsReport pins that the simulator workloads' sim_* metrics
// are the values RunSpec.Report gives for the same seed and replication
// count, timed and untimed replications together.
func TestFoldEqualsReport(t *testing.T) {
	w, _ := lookupWorkload("nutch-pcs")
	const seed, timed, reps = 5, 2, 3
	results := make([]*pcs.Result, timed)
	for rep := range results {
		r, err := pcs.Run(w.sim.options(tinyScale, seed, rep))
		if err != nil {
			t.Fatal(err)
		}
		results[rep] = &r
	}
	o := w.sim.options(tinyScale, seed, 0)
	var rest bytes.Buffer
	if err := pcs.RunManyStreamFrom(context.Background(), o, reps, 2, timed, &rest); err != nil {
		t.Fatal(err)
	}
	if err := checkStreamed(rest.Bytes()); err != nil {
		t.Fatal(err)
	}
	agg, err := foldReplications(seed, results, rest.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spec := pcs.RunSpec{Technique: o.Technique.String(), Scenario: o.Scenario, Rate: o.ArrivalRate,
		Requests: o.Requests, Seed: seed, Replications: reps}
	want, err := spec.Report()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(agg)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Errorf("folded replications differ from RunSpec.Report:\n got  %s\n want %s", a, b)
	}
}
