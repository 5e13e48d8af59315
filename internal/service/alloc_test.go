package service

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// requestDriver runs nutch-search requests (30 nodes, ×100 searching
// fan-out) one batch at a time under single dispatch: a batch is injected
// at one instant and the engine runs until it completes, so the searchers
// queue all but the first sub-request of every batch.
type requestDriver struct {
	tb     testing.TB
	svc    *Service
	engine *sim.Engine
}

func newRequestDriver(tb testing.TB) *requestDriver {
	tb.Helper()
	engine := sim.NewEngine()
	cl := cluster.New(30, cluster.DefaultCapacity())
	svc, err := New(engine, cl, xrand.New(1), basicPolicy{}, Config{Topology: NutchTopology(100)})
	if err != nil {
		tb.Fatal(err)
	}
	return &requestDriver{tb: tb, svc: svc, engine: engine}
}

// run injects batch requests at the current instant and runs the engine
// until all of them complete.
func (d *requestDriver) run(batch int) {
	want := d.svc.Completed() + batch
	for i := 0; i < batch; i++ {
		d.svc.InjectRequest()
	}
	for d.svc.Completed() < want {
		if !d.engine.Step() {
			d.tb.Fatalf("queue drained with %d of %d requests complete", d.svc.Completed(), want)
		}
	}
}

// maxAllocsPerRequest bounds the steady-state heap allocations of one
// sequential request: the Request, one sub-request slab per stage, and
// amortised growth of the latency collector. Per-sub-request allocations
// (hundreds per request at ×100 fan-out) would blow straight through it.
const maxAllocsPerRequest = 8

func TestRequestPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const batch = 4
	d := newRequestDriver(t)
	for i := 0; i < 200; i++ {
		d.run(batch) // warm-up: event pool, instance queues, collector
	}
	perRequest := testing.AllocsPerRun(200, func() { d.run(batch) }) / batch
	t.Logf("%.2f allocations per request", perRequest)
	if perRequest > maxAllocsPerRequest {
		t.Fatalf("%.2f allocations per request, want at most %d", perRequest, maxAllocsPerRequest)
	}
}

// BenchmarkRequestPath measures one nutch-search request through its
// ×100 fan-out on the sequential data plane; allocs/op is allocations per
// request.
func BenchmarkRequestPath(b *testing.B) {
	d := newRequestDriver(b)
	for i := 0; i < 200; i++ {
		d.run(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.run(1)
	}
}
