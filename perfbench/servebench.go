package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/xrand"
	"repro/pcs"
)

// serveWorkload runs pcs-serve, built from the tree under test, as a
// child process with a durable store, and drives it with one closed-loop
// serve.Client caller: it submits a RunSpec, follows its SSE stream to the
// end event, and submits the next. The caller cycles through specs
// distinct RunSpecs whose seeds derive from the workload seed; every
// largeEvery-th of them has largeFactor times the replications, so the
// latency tail is made by the larger runs a daemon's users submit, not
// only by the host preempting small ones.
type serveWorkload struct {
	spec        pcs.RunSpec // Seed is filled per spec
	specs       int
	largeEvery  int
	largeFactor int
}

// daemonStarts is how many times set-up starts the daemon; setup_s is
// the median handshake time.
const daemonStarts = 31

// latencyWindow is how many consecutive runs, in submission order, one
// latency quantile is taken over; the run_latency metrics are the median
// over windows.
const latencyWindow = 100

func (w *serveWorkload) specFor(sc scale, seed int64, i int) pcs.RunSpec {
	s := w.spec
	s.Seed = xrand.StreamSeed(seed, i)
	if sc == tinyScale {
		s.Requests, s.Replications = 30, 2
	}
	if i%w.largeEvery == w.largeEvery-1 {
		s.Replications *= w.largeFactor
	}
	return s
}

// servedRun is one run as a client saw it.
type servedRun struct {
	spec                          int
	submit, created, first, ended time.Time
	frames                        []byte
	err                           error
}

func (r servedRun) latency() time.Duration { return r.ended.Sub(r.submit) }

// reference is a spec's local RunSpec.Report, the value every served run
// of that spec must merge to.
type reference struct {
	spec   pcs.RunSpec
	agg    pcs.Aggregate
	json   []byte
	wallMs float64
}

func (w *serveWorkload) run(cfg runConfig, tr *tracer, log io.Writer) *outcome {
	out := newOutcome()
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		out.op(fmt.Errorf("serve: %w", err))
		return out
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		out.op(fmt.Errorf("serve: %w", err))
		return out
	}
	dir, err := os.MkdirTemp(scratch, "serve-")
	if err != nil {
		out.op(fmt.Errorf("serve: temp dir: %w", err))
		return out
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "pcs-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pcs-serve")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		out.op(fmt.Errorf("serve: building pcs-serve: %v\n%s", err, msg))
		return out
	}

	refs := make([]reference, w.specs)
	if cfg.scale == tinyScale {
		refs = refs[:2]
	}
	for i := range refs {
		refs[i].spec = w.specFor(cfg.scale, cfg.seed, i)
		var walls []float64
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			agg, err := refs[i].spec.Report()
			walls = append(walls, float64(time.Since(t0))/1e6)
			if err != nil {
				out.op(fmt.Errorf("serve: local report of spec %d: %w", i, err))
				return out
			}
			refs[i].agg = agg
		}
		refs[i].wallMs = median(walls)
		if refs[i].json, err = json.Marshal(refs[i].agg); err != nil {
			out.op(fmt.Errorf("serve: encoding local report: %w", err))
			return out
		}
	}

	// Set-up: start the daemon several times on fresh state dirs; the last
	// start serves the measured runs.
	var handshakes []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			d.stop()
		}
		var hs time.Duration
		d, hs, err = startDaemon(bin, filepath.Join(dir, fmt.Sprintf("state-%d", i)))
		if err != nil {
			out.op(err)
			return out
		}
		handshakes = append(handshakes, hs.Seconds())
	}
	defer d.stop()

	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	client := &serve.Client{Base: d.base, HTTP: &http.Client{Transport: firstFrameTransport{transport}}}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+2*time.Minute)
	defer cancel()
	// Warm-up: one run, not measured but checked.
	warm := w.drive(ctx, client, refs, "warm", time.Time{}, 1, nil)

	if tr == nil {
		runs, window, ms := w.measured(ctx, client, refs, cfg.seconds, nil)
		verify(out, append(warm, runs...), refs)
		w.endToEnd(out, runs, window, ms, refs, handshakes)
		fmt.Fprintf(log, "served %d runs in %.2f s (one client, capacity 2)\n", len(runs), window.Seconds())
		return out
	}

	// Traced: half the time untraced, half traced, for the overhead.
	plain, _, _ := w.measured(ctx, client, refs, cfg.seconds/2, nil)
	traced, _, ms := w.measured(ctx, client, refs, cfg.seconds/2, tr)
	all := append(append(warm, plain...), traced...)
	verify(out, all, refs)
	w.perLayer(out, traced, plain, refs, ms, d.stateDir, len(all), tr)
	return out
}

// measured drives the client until the time is up and reports the runs,
// the wall window from the first submission to the last end event, and
// the client process's memory statistics over that window.
func (w *serveWorkload) measured(ctx context.Context, c *serve.Client, refs []reference, seconds time.Duration,
	tr *tracer) ([]servedRun, time.Duration, memDelta) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	phase := "plain"
	if tr != nil {
		phase = "traced"
	}
	runs := w.drive(ctx, c, refs, phase, start.Add(seconds), 0, tr)
	window := time.Duration(0)
	for _, r := range runs {
		window = max(window, r.ended.Sub(start))
	}
	runtime.ReadMemStats(&m1)
	return runs, window, memDelta{
		allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC, pause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		peakHeap: max(m0.HeapAlloc, m1.HeapAlloc),
	}
}

type memDelta struct {
	allocs, bytes uint64
	gcs           uint32
	pause         time.Duration
	peakHeap      uint64
}

// drive runs the closed-loop client: it submits, follows to the end
// event and submits again, until deadline (or, with count > 0, for count
// runs), taking the specs round-robin. There is one client so that the
// daemon's run, the client and the daemon's other goroutines do not
// contend for the machine's two cores, which would make the latency tail
// one of the host's scheduling.
func (w *serveWorkload) drive(ctx context.Context, c *serve.Client, refs []reference, phase string,
	deadline time.Time, count int, tr *tracer) []servedRun {
	var runs []servedRun
	for n := 0; count > 0 && n < count || count == 0 && time.Now().Before(deadline); n++ {
		i := n % len(refs)
		runs = append(runs, serveOne(ctx, c, refs[i].spec, i, fmt.Sprintf("%s-%d", phase, n), tr))
	}
	return runs
}

// serveOne submits one spec and follows its stream to the end event.
func serveOne(ctx context.Context, c *serve.Client, spec pcs.RunSpec, i int, label string, tr *tracer) servedRun {
	r := servedRun{spec: i, submit: time.Now()}
	id := tr.start("bench.served_run", label, 0)
	defer tr.end(id)
	var status serve.RunStatus
	tr.timed("serve.CreateRun", label, id, func() { status, r.err = c.CreateRun(ctx, spec) })
	r.created = time.Now()
	if r.err != nil {
		r.ended = r.created
		return r
	}
	var first time.Time
	sctx := context.WithValue(ctx, firstFrameKey{}, &first)
	tr.timed("serve.StreamRun", label, id, func() { r.frames, r.err = c.StreamRun(sctx, status.ID) })
	r.ended = time.Now()
	r.first = first
	if r.first.IsZero() {
		r.first = r.ended
	}
	return r
}

// verify checks every served run: it ended done (StreamRun errors
// otherwise), streamed one frame per replication, and its frames merge to
// the same Aggregate as the local RunSpec.Report of its spec.
func verify(out *outcome, runs []servedRun, refs []reference) {
	for k, r := range runs {
		out.op(checkServed(k, r, refs[r.spec]))
	}
}

func checkServed(k int, r servedRun, ref reference) error {
	if r.err != nil {
		return fmt.Errorf("served run %d: %w", k, r.err)
	}
	if n := bytes.Count(r.frames, []byte("\n")); n != ref.spec.Replications {
		return fmt.Errorf("served run %d: %d frames for %d replications", k, n, ref.spec.Replications)
	}
	agg, err := pcs.MergeStream(bytes.NewReader(r.frames))
	if err != nil {
		return fmt.Errorf("served run %d: merging its frames: %w", k, err)
	}
	got, err := json.Marshal(agg)
	if err != nil {
		return fmt.Errorf("served run %d: encoding its report: %w", k, err)
	}
	if !bytes.Equal(got, ref.json) {
		return fmt.Errorf("served run %d: merged frames differ from the local report of its spec:\n got  %s\n want %s", k, got, ref.json)
	}
	return nil
}

func (w *serveWorkload) endToEnd(out *outcome, runs []servedRun, window time.Duration, ms memDelta,
	refs []reference, handshakes []float64) {
	if len(runs) == 0 || window <= 0 {
		out.fail(fmt.Errorf("serve: no run completed in the measured window"))
		return
	}
	var lat []float64
	requests := 0.0
	for _, r := range runs {
		lat = append(lat, float64(r.latency())/1e6)
		requests += float64(refs[r.spec].spec.Requests * refs[r.spec].spec.Replications)
	}
	out.set("req_per_s", requests/window.Seconds())
	out.set("setup_s", median(handshakes))
	out.set("runs_per_s", float64(len(runs))/window.Seconds())
	out.set("run_latency_p50_ms", windowQuantile(lat, latencyWindow, 0.5))
	out.set("run_latency_p95_ms", windowQuantile(lat, latencyWindow, 0.95))
	out.set("allocs_per_req", float64(ms.allocs)/requests)
	out.set("alloc_kb_per_req", float64(ms.bytes)/1024/requests)
	out.set("sim_avg_overall_ms", meanOverSpecs(refs, func(a pcs.Aggregate) float64 { return a.AvgOverallMs.Mean }))
	out.set("sim_p50_overall_ms", meanOverSpecs(refs, func(a pcs.Aggregate) float64 { return a.OverallP50Ms.Mean }))
	out.set("sim_p99_overall_ms", meanOverSpecs(refs, func(a pcs.Aggregate) float64 { return a.OverallP99Ms.Mean }))
	out.set("sim_p99_component_ms", meanOverSpecs(refs, func(a pcs.Aggregate) float64 { return a.P99ComponentMs.Mean }))
}

func (w *serveWorkload) perLayer(out *outcome, traced, plain []servedRun, refs []reference, ms memDelta,
	stateDir string, served int, tr *tracer) {
	if len(traced) == 0 || len(plain) == 0 {
		out.fail(fmt.Errorf("serve: no run completed in a measured window"))
		return
	}
	var create, first, stream, overhead, tracedLat, plainLat []float64
	frames, frameBytes := 0, 0
	for _, r := range traced {
		create = append(create, float64(r.created.Sub(r.submit))/1e6)
		first = append(first, float64(r.first.Sub(r.submit))/1e6)
		stream = append(stream, float64(r.ended.Sub(r.first))/1e6)
		tracedLat = append(tracedLat, float64(r.latency())/1e6)
		overhead = append(overhead, float64(r.latency())/1e6-refs[r.spec].wallMs)
		frames += bytes.Count(r.frames, []byte("\n"))
		frameBytes += len(r.frames)
	}
	for _, r := range plain {
		plainLat = append(plainLat, float64(r.latency())/1e6)
	}
	out.set("serve.create_ms", median(create))
	out.set("serve.first_frame_ms", median(first))
	out.set("serve.stream_ms", median(stream))
	out.set("serve.frames", float64(frames)/float64(len(traced)))
	out.set("serve.frame_bytes", float64(frameBytes)/float64(max(frames, 1)))
	out.set("serve.overhead_ms", median(overhead))
	out.set("trace.overhead_ms", median(tracedLat)-median(plainLat))

	var storeBytes int64
	_ = filepath.WalkDir(stateDir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				storeBytes += info.Size()
			}
		}
		return nil
	})
	out.set("serve.store_kb_per_run", float64(storeBytes)/1024/float64(served))

	// MergeStream over every received frame set, as a client of the
	// daemon folds a run's stream into its report.
	t0 := time.Now()
	id := tr.start("pcs.MergeStream", "", 0)
	for _, r := range traced {
		if _, err := pcs.MergeStream(bytes.NewReader(r.frames)); err != nil {
			out.fail(fmt.Errorf("serve: merging frames: %w", err))
		}
	}
	tr.end(id)
	out.set("pcs.merge_us_per_frame", float64(time.Since(t0))/1e3/float64(max(frames, 1)))

	out.set("mem.gc_cycles", float64(ms.gcs))
	out.set("mem.gc_pause_ms", float64(ms.pause)/1e6)
	out.set("mem.peak_heap_mb", float64(ms.peakHeap)/(1<<20))
	zeroLayers(out, "sim.events", "sim.ns_per_event", "sim.pending_max", "sim.hold_ns_per_event",
		"pcs.slice_ms_max", "pcs.finish_ms", "service.queued_max", "service.busy_mean",
		"scheduler.intervals", "scheduler.migrations", "scheduler.search_ms", "scheduler.decisions",
		"predictor.build_ms", "profiling.train_ms", "workload.batch_jobs", "lane.ns_per_event",
		"traffic.ns_per_arrival")
}

// meanOverSpecs averages one field of the specs' reports, weighted by
// their replication counts, so it is the mean over all their
// replications.
func meanOverSpecs(refs []reference, field func(pcs.Aggregate) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range refs {
		sum += field(r.agg) * float64(r.spec.Replications)
		n += r.spec.Replications
	}
	return sum / float64(n)
}

// daemon is a running pcs-serve child.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	stateDir string
	stderr   bytes.Buffer
	exited   chan error
}

// startDaemon starts pcs-serve on a free port and waits for its
// listening handshake; it returns the time from start to handshake.
func startDaemon(bin, stateDir string) (*daemon, time.Duration, error) {
	d := &daemon{stateDir: stateDir, exited: make(chan error, 1)}
	hs := &handshake{line: make(chan string, 1)}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-capacity", "2", "-state-dir", stateDir)
	d.cmd.Stdout = hs
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("serve: starting pcs-serve: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case line := <-hs.line:
		took := time.Since(t0)
		const prefix = "listening on "
		i := strings.Index(line, prefix)
		if i < 0 {
			d.stop()
			return nil, 0, fmt.Errorf("serve: unexpected pcs-serve handshake %q", line)
		}
		d.base = strings.Fields(line[i+len(prefix):])[0]
		return d, took, nil
	case err := <-d.exited:
		return nil, 0, fmt.Errorf("serve: pcs-serve exited before its handshake: %v: %s", err, d.stderr.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("serve: no pcs-serve handshake within 30 s")
	}
}

// stop kills the daemon and waits until it has exited. Every run it
// served is finished and on disk by then.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.exited
}

// handshake captures the first line pcs-serve prints: its listening
// address.
type handshake struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	line chan string // buffered 1: the single handshake line
}

func (h *handshake) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.sent {
		h.buf = append(h.buf, p...)
		if i := bytes.IndexByte(h.buf, '\n'); i >= 0 {
			h.line <- string(h.buf[:i])
			h.sent = true
		}
	}
	return len(p), nil
}

// firstFrameKey carries a *time.Time through a StreamRun request's
// context; firstFrameTransport sets it when the first SSE frame arrives.
type firstFrameKey struct{}

// firstFrameTransport wraps response bodies of requests that carry a
// firstFrameKey slot, so the time of the first frame is taken where the
// bytes arrive, without changing serve.Client.
type firstFrameTransport struct{ base http.RoundTripper }

func (t firstFrameTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if slot, ok := req.Context().Value(firstFrameKey{}).(*time.Time); ok {
		resp.Body = &firstFrameBody{ReadCloser: resp.Body, slot: slot}
	}
	return resp, nil
}

type firstFrameBody struct {
	io.ReadCloser
	slot *time.Time
}

func (b *firstFrameBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.slot.IsZero() && bytes.HasPrefix(p[:n], []byte("data: ")) {
		*b.slot = time.Now()
	}
	return n, err
}
