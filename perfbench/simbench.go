package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/xrand"
	"repro/pcs"
)

// crossCheck names the untimed invariant check a simulator workload makes
// once per run.
type crossCheck int

const (
	crossNone   crossCheck = iota
	crossShards            // same Result at 1 and at the workload's shard count (invariant #7)
	crossLanes             // same Result at 1 and at the workload's lane count (invariant #10)
)

// simWorkload drives pcs.NewSimulation / RunTo / Finish in-process. One
// timed run is one replication, advanced in steps of step virtual seconds
// as pcs-live advances it; replication i uses xrand.StreamSeed(seed, i),
// the derivation pcs.RunMany uses. The first replications are timed one at a
// time; the untimed ones after them are streamed on two workers by
// pcs.RunManyStreamFrom and only enter the sim_* metrics, whose spread
// across seeds shrinks with the number of replications folded. The sim_*
// metrics are those of RunSpec{Seed: seed, Replications: replications +
// untimed}.
type simWorkload struct {
	base     pcs.Options // Seed and Requests are filled per run
	requests int
	// step is the virtual seconds per timed RunTo step. At 0.5 one step in
	// ten holds a PCS control interval (every 5 s), so on the PCS
	// workloads the step p95 falls among those steps.
	step         float64
	replications int
	untimed      int
	crossCheck   crossCheck
}

func (w *simWorkload) options(sc scale, seed int64, rep int) pcs.Options {
	o := w.base
	o.Requests = w.requests
	if sc == tinyScale {
		o.Requests = 200
	}
	o.Seed = xrand.StreamSeed(seed, rep)
	return o
}

// reps returns the timed and the untimed replication counts.
func (w *simWorkload) reps(sc scale) (timed, untimed int) {
	if sc == tinyScale {
		return 2, min(w.untimed, 1)
	}
	return w.replications, w.untimed
}

func (w *simWorkload) run(cfg runConfig, tr *tracer, log io.Writer) *outcome {
	if tr != nil {
		return w.traced(cfg, tr, log)
	}
	return w.measure(cfg, log)
}

// simRun is one untraced replication.
type simRun struct {
	res           pcs.Result
	events        uint64
	setup, run    time.Duration
	steps         []float64 // wall ms of each RunTo step
	allocs, bytes uint64    // over the run phase
	gcs           uint32
	gcPause       time.Duration
}

// runOnce builds one simulation, advances it through its arrival window
// in steps of step virtual seconds and finishes it (the drain period),
// timing set-up, each step and the whole run phase, and counting the run
// phase's allocations. Steps stop at the last arrival because the drain
// period carries almost no work, and its steps would pull the step p50
// towards zero by a share that depends on the workload's length.
func runOnce(o pcs.Options, step float64) (simRun, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := pcs.NewSimulation(o)
	if err != nil {
		return simRun{}, err
	}
	setup := time.Since(t0)
	arrivalsEnd := s.Horizon() - s.Options().DrainSeconds
	steps := make([]float64, 0, int(arrivalsEnd/step)+2) // allocated before counting
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	for k := 1; s.Now() < arrivalsEnd; k++ {
		ts := time.Now()
		s.RunTo(min(float64(k)*step, arrivalsEnd))
		steps = append(steps, float64(time.Since(ts))/1e6)
	}
	res := s.Finish()
	run := time.Since(t1)
	runtime.ReadMemStats(&m1)
	return simRun{
		res:     res,
		events:  s.Snapshot().FiredEvents,
		setup:   setup,
		run:     run,
		steps:   steps,
		allocs:  m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, nil
}

// checkResult applies the per-run correctness checks: request
// conservation, and byte-identity with an earlier run of the same inputs
// (nil want skips the comparison).
func checkResult(label string, got pcs.Result, want *pcs.Result) error {
	if got.Arrivals == 0 || got.Arrivals != got.Completed+got.Failed+got.TimedOut {
		return fmt.Errorf("%s: conservation broken: arrivals %d, completed %d, failed %d, timed out %d",
			label, got.Arrivals, got.Completed, got.Failed, got.TimedOut)
	}
	if want == nil {
		return nil
	}
	a, err := json.Marshal(got)
	if err != nil {
		return fmt.Errorf("%s: encoding result: %w", label, err)
	}
	b, err := json.Marshal(*want)
	if err != nil {
		return fmt.Errorf("%s: encoding result: %w", label, err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: result differs from the first run of the same inputs:\n got  %s\n want %s", label, a, b)
	}
	return nil
}

// measure is the untraced end-to-end run: replications in order, then
// round again from replication 0 until the measured time is up, so every
// run has at least one byte-identity check against an earlier run of the
// same seed. The latency metrics are those of a step: the p50 and p95 of
// each run's step times, each the median over runs, so a burst of host
// contention that slows a few runs does not move them.
func (w *simWorkload) measure(cfg runConfig, log io.Writer) *outcome {
	out := newOutcome()
	n, untimed := w.reps(cfg.scale)
	first := make([]*pcs.Result, n)
	var setupS, p50s, p95s, reqPerS []float64
	var allocs, kb, arrivals float64
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	runs := 0
	for i := 0; i <= n || time.Now().Before(deadline); i++ {
		rep := i % n
		r, err := runOnce(w.options(cfg.scale, cfg.seed, rep), w.step)
		label := fmt.Sprintf("run %d (replication %d)", i, rep)
		if err == nil {
			err = checkResult(label, r.res, first[rep])
		} else {
			err = fmt.Errorf("%s: %w", label, err)
		}
		out.op(err)
		if err != nil {
			continue
		}
		if first[rep] == nil {
			first[rep] = &r.res
		}
		runs++
		setupS = append(setupS, r.setup.Seconds())
		p50s = append(p50s, median(r.steps))
		p95s = append(p95s, quantile(r.steps, 0.95))
		reqPerS = append(reqPerS, float64(r.res.Arrivals)/r.run.Seconds())
		allocs += float64(r.allocs)
		kb += float64(r.bytes) / 1024
		arrivals += float64(r.res.Arrivals)
		fmt.Fprintf(log, "  run %2d rep %d: setup %7.1f ms, run %8.1f ms, %d steps (p50 %.1f, p95 %.1f ms), %d events, %.0f req/s\n",
			i, rep, float64(r.setup)/1e6, float64(r.run)/1e6, len(r.steps), p50s[len(p50s)-1], p95s[len(p95s)-1],
			r.events, reqPerS[len(reqPerS)-1])
	}
	elapsed := time.Since(start)

	if w.crossCheck != crossNone && first[0] != nil {
		o := w.options(cfg.scale, cfg.seed, 0)
		what := "1 shard"
		if w.crossCheck == crossShards {
			o.Shards = 1
		} else {
			o.Lanes, what = 1, "1 lane"
		}
		res, err := pcs.Run(o)
		if err == nil {
			err = checkResult("cross-check at "+what, res, first[0])
		}
		out.op(err)
	}

	if runs == 0 {
		return out
	}
	out.set("req_per_s", median(reqPerS))
	out.set("setup_s", median(setupS))
	out.set("runs_per_s", float64(runs)/elapsed.Seconds())
	out.set("run_latency_p50_ms", median(p50s))
	out.set("run_latency_p95_ms", median(p95s))
	out.set("allocs_per_req", allocs/arrivals)
	out.set("alloc_kb_per_req", kb/arrivals)
	var rest bytes.Buffer
	if untimed > 0 {
		err := pcs.RunManyStreamFrom(context.Background(), w.options(cfg.scale, cfg.seed, 0), n+untimed, 2, n, &rest)
		if err == nil {
			err = checkStreamed(rest.Bytes())
		}
		out.op(err)
		if err != nil {
			return out
		}
	}
	agg, err := foldReplications(cfg.seed, first, rest.Bytes())
	out.op(err)
	if err != nil {
		return out
	}
	out.set("sim_avg_overall_ms", agg.AvgOverallMs.Mean)
	out.set("sim_p50_overall_ms", agg.OverallP50Ms.Mean)
	out.set("sim_p99_overall_ms", agg.OverallP99Ms.Mean)
	out.set("sim_p99_component_ms", agg.P99ComponentMs.Mean)
	return out
}

// checkStreamed applies the conservation check to every replication of an
// NDJSON replication stream.
func checkStreamed(frames []byte) error {
	dec := json.NewDecoder(bytes.NewReader(frames))
	for dec.More() {
		var rec pcs.StreamedRun
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("decoding untimed replications: %w", err)
		}
		if err := checkResult(fmt.Sprintf("untimed replication %d", rec.Rep), rec.Result, nil); err != nil {
			return err
		}
	}
	return nil
}

// foldReplications encodes the timed replications' Results as the NDJSON
// frames pcs.RunManyStream writes, appends rest (the frames of the
// replications after them) and folds the stream with pcs.MergeStream, so
// the sim_* metrics are exactly RunSpec{Seed: seed, Replications:
// len(results) + untimed}.Report() of the workload's spec.
func foldReplications(seed int64, results []*pcs.Result, rest []byte) (pcs.Aggregate, error) {
	var frames bytes.Buffer
	enc := json.NewEncoder(&frames)
	for rep, r := range results {
		if r == nil {
			return pcs.Aggregate{}, fmt.Errorf("replication %d never completed, so the sim_* metrics would not cover the full set", rep)
		}
		if err := enc.Encode(pcs.StreamedRun{Rep: rep, Seed: xrand.StreamSeed(seed, rep), Result: *r}); err != nil {
			return pcs.Aggregate{}, fmt.Errorf("encoding replication %d: %w", rep, err)
		}
	}
	frames.Write(rest)
	agg, err := pcs.MergeStream(&frames)
	if err != nil {
		return pcs.Aggregate{}, fmt.Errorf("folding replications: %w", err)
	}
	return agg, nil
}

// sliceSeconds is the virtual-time slice the traced run advances by.
const sliceSeconds = 1.0

// traced is the per-layer run: replication 0 once untraced and once
// advanced with RunTo over fixed virtual slices with a Snapshot at each
// boundary, then the layer drivers on inputs shaped like the workload.
func (w *simWorkload) traced(cfg runConfig, tr *tracer, log io.Writer) *outcome {
	out := newOutcome()
	o := w.options(cfg.scale, cfg.seed, 0)
	base, err := runOnce(o, w.step)
	out.op(err)
	if err != nil {
		return out
	}

	runtime.GC()
	const run = "rep-0"
	root := tr.start("bench.traced_run", run, 0)
	t0 := time.Now()
	var s *pcs.Simulation
	tr.timed("pcs.NewSimulation", run, root, func() { s, err = pcs.NewSimulation(o) })
	if err != nil {
		tr.end(root)
		out.op(fmt.Errorf("traced run: %w", err))
		return out
	}
	var sliceMax time.Duration
	var pendingMax, queuedMax, busySum, slices int
	var peakHeap uint64
	var ms runtime.MemStats
	for s.Now() < s.Horizon() {
		d := tr.timed("pcs.RunTo", run, root, func() { s.RunTo(s.Now() + sliceSeconds) })
		sliceMax = max(sliceMax, d)
		var snap pcs.Snapshot
		tr.timed("pcs.Snapshot", run, root, func() { snap = s.Snapshot() })
		pendingMax = max(pendingMax, snap.PendingEvents)
		queuedMax = max(queuedMax, snap.QueuedExecutions)
		busySum += snap.BusyInstances
		slices++
		runtime.ReadMemStats(&ms)
		peakHeap = max(peakHeap, ms.HeapAlloc)
	}
	var res pcs.Result
	finish := tr.timed("pcs.Finish", run, root, func() { res = s.Finish() })
	tracedWall := time.Since(t0)
	tr.end(root)
	out.op(checkResult("traced run", res, &base.res))

	out.set("sim.events", float64(base.events))
	out.set("sim.ns_per_event", float64(base.run)/float64(base.events))
	out.set("sim.pending_max", float64(pendingMax))
	out.set("pcs.slice_ms_max", float64(sliceMax)/1e6)
	out.set("pcs.finish_ms", float64(finish)/1e6)
	out.set("service.queued_max", float64(queuedMax))
	out.set("service.busy_mean", float64(busySum)/float64(max(slices, 1)))
	out.set("scheduler.intervals", float64(res.SchedulingIntervals))
	out.set("scheduler.migrations", float64(res.Migrations))
	out.set("workload.batch_jobs", float64(res.BatchJobsStarted))
	out.set("mem.gc_cycles", float64(base.gcs))
	out.set("mem.gc_pause_ms", float64(base.gcPause)/1e6)
	out.set("mem.peak_heap_mb", float64(peakHeap)/(1<<20))
	overhead := tracedWall - (base.setup + base.run)
	out.set("trace.overhead_ms", float64(overhead)/1e6)
	fmt.Fprintf(log, "untraced %.1f ms, traced %.1f ms: tracing overhead %.1f ms (%.1f%%)\n",
		float64(base.setup+base.run)/1e6, float64(tracedWall)/1e6, float64(overhead)/1e6,
		100*float64(overhead)/float64(base.setup+base.run))

	w.layerDrivers(cfg, o, pendingMax, tr, out, log)
	zeroLayers(out, "serve.create_ms", "serve.first_frame_ms", "serve.stream_ms", "serve.frames",
		"serve.frame_bytes", "serve.store_kb_per_run", "serve.overhead_ms", "pcs.merge_us_per_frame")
	return out
}
