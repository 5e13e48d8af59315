package main

import (
	"io"

	"repro/pcs"
)

// workload is one set of inputs the benchmark runs. Every workload is
// deterministic given its seed; the program under test receives only the
// inputs generated from it (replication seeds, RunSpecs).
type workload struct {
	name, why string
	// heldOutSeed is kept back from the seeds used while writing a change,
	// so a claim can be confirmed on inputs the change was not tuned on.
	heldOutSeed int64

	sim   *simWorkload   // simulator workloads
	serve *serveWorkload // the daemon workload
}

func (w workload) run(cfg runConfig, tr *tracer, log io.Writer) *outcome {
	if w.sim != nil {
		return w.sim.run(cfg, tr, log)
	}
	return w.serve.run(cfg, tr, log)
}

// workloads lists the benchmark's workloads. Each uses at most two
// threads or connections, from one process (plus the daemon child for
// serve-store).
func workloads() []workload {
	return []workload{
		{
			name:        "nutch-pcs",
			why:         "the paper's deployment (nutch-search, 30 nodes, x100) under PCS at 200 req/s: the request path and event heap dominate, the control interval is a minority share",
			heldOutSeed: 7001,
			sim: &simWorkload{
				base:         pcs.Options{Technique: pcs.PCS, Scenario: "nutch-search", ArrivalRate: 200},
				requests:     10000,
				step:         0.5,
				replications: 19,
				untimed:      23,
			},
		},
		{
			name:        "large-cluster-pcs",
			why:         "large-cluster (96 nodes, x192) under PCS at 100 req/s on 2 shards: the control interval (matrix build, Algorithm 1, migration) dominates, so predictor and scheduler gains show here",
			heldOutSeed: 7002,
			sim: &simWorkload{
				base:         pcs.Options{Technique: pcs.PCS, Scenario: "large-cluster", ArrivalRate: 100, Shards: 2},
				requests:     3000,
				step:         0.5,
				replications: 30,
				crossCheck:   crossShards,
			},
		},
		{
			name:        "red3-laned",
			why:         "nutch-search under RED-3 at 200 req/s on 2 lanes: no control plane, three replicas plus cancellations per sub-request, and the only workload that runs the lane data plane",
			heldOutSeed: 7003,
			sim: &simWorkload{
				base:         pcs.Options{Technique: pcs.RED3, Scenario: "nutch-search", ArrivalRate: 200, Lanes: 2},
				requests:     2000,
				step:         0.1,
				replications: 11,
				crossCheck:   crossLanes,
			},
		},
		{
			name:        "serve-store",
			why:         "one closed-loop client against a pcs-serve child with a durable store: per-frame fsync, SSE, NDJSON and MergeStream, which no simulator workload reaches",
			heldOutSeed: 7004,
			serve: &serveWorkload{
				spec: pcs.RunSpec{
					Technique: "Basic", Nodes: 8, SearchComponents: 12,
					Requests: 100, Replications: 8, Workers: 1,
				},
				specs:       24,
				largeEvery:  8,
				largeFactor: 3,
			},
		},
	}
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
