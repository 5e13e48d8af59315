package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/lane"
	"repro/internal/profiling"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/traffic"
	batch "repro/internal/workload"
	"repro/internal/xrand"
	"repro/pcs"
)

// The layer drivers below call each layer's public functions on inputs
// shaped like the workload: its scenario's component count m and node
// count k, its shard/lane width, its arrival rate and its event-queue
// depth. The constants copy the defaults pcs.Options.withDefaults
// (pcs/pcs.go) fills in for the workloads, which set none of them: ε =
// 0.005 ms, 20 migrations per interval, 150 training mixes of 300 probes,
// 2 % monitor noise, degree-1 regressions. They must follow those
// defaults, or the drivers stop being shaped like the workloads.
const (
	epsilonSeconds   = 0.000005
	maxMigrations    = 20
	trainingMixes    = 150
	profilingProbes  = 300
	monitorNoise     = 0.02
	regressionDegree = 1
	monitorWindow    = 10
)

// driverSizes are the repeat and event counts of the layer drivers.
type driverSizes struct {
	controlRepeats, trainRepeats int
	holdEvents, laneEvents       int
	arrivals                     int
	probes, mixes                int
}

func sizesFor(sc scale) driverSizes {
	if sc == tinyScale {
		return driverSizes{controlRepeats: 1, trainRepeats: 1, holdEvents: 2000, laneEvents: 2000,
			arrivals: 2000, probes: 10, mixes: 5}
	}
	return driverSizes{controlRepeats: 7, trainRepeats: 3, holdEvents: 1_000_000, laneEvents: 400_000,
		arrivals: 2_000_000, probes: profilingProbes, mixes: trainingMixes}
}

// layerDrivers runs every driver that applies to the workload and zeroes
// the metrics of layers the workload does not run: predictor, scheduler
// and profiling only run under PCS, lane only on the laned data plane.
func (w *simWorkload) layerDrivers(cfg runConfig, o pcs.Options, depth int, tr *tracer, out *outcome, log io.Writer) {
	sz := sizesFor(cfg.scale)
	sc, err := scenario.Get(o.Scenario)
	if err != nil {
		out.op(err)
		return
	}
	topo := sc.Topology(o.SearchComponents)
	nodes := o.Nodes
	if nodes <= 0 {
		nodes = sc.Nodes
	}
	var pool *shard.Pool
	if workers := max(o.Shards, o.Lanes); workers > 1 {
		pool = shard.NewPool(workers)
		defer pool.Close()
	}
	root := tr.start("bench.layer_drivers", "drivers", 0)
	defer tr.end(root)

	if o.Technique == pcs.PCS {
		out.op(controlDriver(cfg, sc.Name, topo.NumComponents(), nodes, o.ArrivalRate, pool, sz, tr, root, out))
		out.op(profilingDriver(cfg, sc, topo, pool, sz, tr, root, out))
	} else {
		zeroLayers(out, "predictor.build_ms", "scheduler.search_ms", "scheduler.decisions", "profiling.train_ms")
	}

	replicas := 1
	if o.Technique == pcs.RED3 {
		replicas = 3
	}
	var hold float64
	tr.timed("sim.hold", "drivers", root, func() { hold = holdNsPerEvent(max(depth, 1), replicas, sz.holdEvents, cfg.seed) })
	out.set("sim.hold_ns_per_event", hold)

	if o.Lanes > 0 {
		var ns float64
		tr.timed("lane.Advance", "drivers", root, func() {
			ns, err = laneNsPerEvent(o.Lanes, service.MaxLaneClasses(topo, nodes), max(depth, 1), sz.laneEvents, cfg.seed, pool)
		})
		out.op(err)
		out.set("lane.ns_per_event", ns)
	} else {
		zeroLayers(out, "lane.ns_per_event")
	}

	var arr float64
	tr.timed("traffic.Next", "drivers", root, func() { arr = poissonNsPerArrival(o.ArrivalRate, sz.arrivals, cfg.seed) })
	out.set("traffic.ns_per_arrival", arr)
	fmt.Fprintf(log, "layer drivers: m=%d k=%d depth=%d: hold %.1f ns/event, traffic %.1f ns/arrival\n",
		topo.NumComponents(), nodes, depth, hold, arr)
}

// controlDriver times one PCS control interval's analysis and search on a
// synthetic matrix input of the workload's shape with
// scheduler.BuildAndSchedule, whose AnalysisTime (predictor.BuildMatrix)
// and SearchTime (Algorithm 1) split the interval as Fig. 7 does.
func controlDriver(cfg runConfig, scenarioName string, m, k int, lambda float64, pool *shard.Pool,
	sz driverSizes, tr *tracer, parent int, out *outcome) error {
	in, err := experiments.SyntheticMatrixInput(scenarioName, m, k, monitorWindow, lambda, xrand.New(cfg.seed))
	if err != nil {
		return fmt.Errorf("control driver: %w", err)
	}
	in.Pool = pool
	var build, search []float64
	decisions := -1
	for i := 0; i < sz.controlRepeats; i++ {
		var res scheduler.Result
		tr.timed("scheduler.BuildAndSchedule", "drivers", parent, func() {
			res, _, err = scheduler.BuildAndSchedule(in, scheduler.Config{Epsilon: epsilonSeconds, MaxMigrations: maxMigrations})
		})
		if err != nil {
			return fmt.Errorf("control driver: %w", err)
		}
		build = append(build, float64(res.AnalysisTime)/1e6)
		search = append(search, float64(res.SearchTime)/1e6)
		if decisions >= 0 && decisions != len(res.Decisions) {
			return fmt.Errorf("control driver: Algorithm 1 made %d decisions on a repeat of an input it made %d on",
				len(res.Decisions), decisions)
		}
		decisions = len(res.Decisions)
	}
	out.set("predictor.build_ms", median(build))
	out.set("scheduler.search_ms", median(search))
	out.set("scheduler.decisions", float64(decisions))
	return nil
}

// profilingDriver times the PCS training pass NewSimulation runs: one
// model per stage from the kind×size grid plus random training mixes. The
// recipe copies the one in pcs.NewSimulation (pcs/simulation.go) and must
// follow it.
func profilingDriver(cfg runConfig, sc scenario.Scenario, topo service.Topology, pool *shard.Pool,
	sz driverSizes, tr *tracer, parent int, out *outcome) error {
	law := service.DefaultLaw(cluster.DefaultCapacity())
	minMB, maxMB := sc.Workload.MinInputMB, sc.Workload.MaxInputMB
	var train []float64
	for i := 0; i < sz.trainRepeats; i++ {
		src := xrand.New(cfg.seed)
		bgs := batch.KindSizeGrid(batch.JobKinds(), batch.LinearSizes(12, minMB, maxMB))
		bgs = append(bgs, batch.TrainingMixes(src.Fork(), sz.mixes, 3, minMB, maxMB)...)
		var err error
		d := tr.timed("profiling.TrainStageModels", "drivers", parent, func() {
			_, err = profiling.TrainStageModels(topo, law, bgs, profiling.Config{
				Probes: sz.probes, MonitorNoiseSigma: monitorNoise, Degree: regressionDegree, Pool: pool,
			}, src.Fork())
		})
		if err != nil {
			return fmt.Errorf("profiling driver: %w", err)
		}
		train = append(train, float64(d)/1e6)
	}
	out.set("profiling.train_ms", median(train))
	return nil
}

// holdNsPerEvent is the classic hold model on sim.Engine: depth events
// pending; each fired event schedules its successor an exponential delay
// later. With replicas > 1 it also schedules replicas-1 redundant copies
// and cancels copies scheduled cancelLag firings earlier, as RED-k
// cancels the replicas that lost the race. It returns wall ns per fired
// event, cancellations included.
func holdNsPerEvent(depth, replicas, events int, seed int64) float64 {
	const cancelLag = 16
	eng := sim.NewEngine()
	src := xrand.New(seed)
	var copies []sim.EventHandle
	noop := func(float64) {}
	var fire sim.Event
	fire = func(now float64) {
		eng.At(now+src.Exp(1), fire)
		for r := 1; r < replicas; r++ {
			copies = append(copies, eng.At(now+src.Exp(1), noop))
		}
		if excess := len(copies) - cancelLag*(replicas-1); excess > 0 {
			for _, h := range copies[:excess] {
				h.Cancel()
			}
			copies = copies[excess:]
		}
	}
	for i := 0; i < depth; i++ {
		eng.At(src.Exp(1), fire)
	}
	t0 := time.Now()
	for eng.Fired() < uint64(events) && eng.Step() {
	}
	return float64(time.Since(t0)) / float64(eng.Fired())
}

// laneNsPerEvent drives lane.Plane with depth events spread over the
// workload's affinity classes; each event schedules one successor, half
// of them as cross-class messages paying the transit delay (dispatch and
// completion notices cross classes in the laned service). It returns wall
// ns per fired event.
func laneNsPerEvent(lanes, classes, depth, events int, seed int64, pool *shard.Pool) (float64, error) {
	plane, err := lane.New(lanes, service.LaneTransitDelay, classes, pool)
	if err != nil {
		return 0, err
	}
	const meanGap = 0.001
	root := xrand.New(seed)
	srcs := make([]*xrand.Source, classes)
	for i := range srcs {
		srcs[i] = root.Fork()
	}
	var handler func(c int) sim.Event
	handler = func(c int) sim.Event {
		return func(now float64) {
			src := srcs[c]
			dst, at := c, now+src.Exp(meanGap)
			if src.Float64() < 0.5 {
				dst = src.Intn(classes)
				at += service.LaneTransitDelay
			}
			plane.Schedule(c, dst, at, handler(dst))
		}
	}
	for i := 0; i < depth; i++ {
		c := i % classes
		plane.Schedule(c, c, root.Exp(meanGap), handler(c))
	}
	horizon := float64(events) * meanGap / float64(depth)
	eng := sim.NewEngine()
	t0 := time.Now()
	plane.Advance(eng, horizon)
	return float64(time.Since(t0)) / float64(max(plane.Fired(), 1)), nil
}

// poissonNsPerArrival times the Poisson source's Next at rate λ.
func poissonNsPerArrival(rate float64, n int, seed int64) float64 {
	p := traffic.NewPoisson(xrand.New(seed), rate)
	now := 0.0
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a, _ := p.Next(now)
		now = a.At
	}
	return float64(time.Since(t0)) / float64(n)
}
