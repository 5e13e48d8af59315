package serve

import (
	"bytes"
	"fmt"
	"sync"
)

// job is one queued unit of work: an execution closure with the token cost
// it holds while running, labelled with the run id it executes so the
// queue is introspectable (GET /v1/queue) and cancellable by id.
type job struct {
	id       string
	cost     int
	fn       func(release func())
	aborted  bool
	started  bool
	released bool
}

// ticket is a submitter's handle on a queued job: Abort dequeues the job
// if — and only if — it has not started yet.
type ticket struct {
	e *executor
	j *job
}

// Abort removes the job from the queue if it is still waiting there.
// It returns true exactly when the job will never run: the caller then
// owns the terminal transition (no tokens were ever held, so none are
// released). A false return means the job already started (or finished) —
// cancellation must then go through the job's own context.
func (t *ticket) Abort() bool {
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	if t.j.started || t.j.aborted {
		return false
	}
	t.j.aborted = true
	for i, j := range t.e.queue {
		if j == t.j {
			t.e.queue = append(t.e.queue[:i], t.e.queue[i+1:]...)
			break
		}
	}
	// Removing a wide job from the head can unblock the jobs behind it.
	t.e.dispatchLocked()
	return true
}

// executor is the daemon's bounded work queue: a FIFO of jobs admitted
// against a fixed token budget, where a job's cost is the core width it
// occupies (replication workers × intra-run shard/lane width). Admission
// is strictly head-of-line: a wide job at the head waits for tokens rather
// than being overtaken, so submission order is start order — the property
// that keeps a sweep's execution deterministic under any concurrency.
// Aborting a queued job dequeues it without disturbing the FIFO order of
// the survivors.
type executor struct {
	capacity int

	mu    sync.Mutex
	avail int
	queue []*job
}

// newExecutor sizes the queue's token budget; capacity < 1 is clamped to 1.
func newExecutor(capacity int) *executor {
	if capacity < 1 {
		capacity = 1
	}
	return &executor{capacity: capacity, avail: capacity}
}

// submit enqueues fn at the given cost (clamped to [1, capacity] so no job
// is unrunnable) and starts it as soon as it reaches the queue head with
// enough tokens free. fn receives an idempotent release that returns the
// job's tokens early — a job calls it before publishing its terminal
// state, so an observer of that state never sees the tokens still held.
// The returned ticket can dequeue the job before it starts.
func (e *executor) submit(id string, cost int, fn func(release func())) *ticket {
	if cost < 1 {
		cost = 1
	}
	if cost > e.capacity {
		cost = e.capacity
	}
	j := &job{id: id, cost: cost, fn: fn}
	e.mu.Lock()
	e.queue = append(e.queue, j)
	e.dispatchLocked()
	e.mu.Unlock()
	return &ticket{e: e, j: j}
}

// dispatchLocked starts queued jobs while the head fits in the free
// tokens. Caller holds e.mu.
func (e *executor) dispatchLocked() {
	for len(e.queue) > 0 && e.queue[0].cost <= e.avail {
		j := e.queue[0]
		e.queue = e.queue[1:]
		j.started = true
		e.avail -= j.cost
		go func() {
			defer e.release(j)
			j.fn(func() { e.release(j) })
		}()
	}
}

// release returns a started job's tokens and re-dispatches. It runs at
// least once per started job (the deferred call in dispatchLocked is the
// fallback when the job never released early) and takes effect exactly
// once; over-release would mean a bookkeeping bug upstream, so it panics
// rather than silently widening the budget.
func (e *executor) release(j *job) {
	e.mu.Lock()
	if j.released {
		e.mu.Unlock()
		return
	}
	j.released = true
	e.avail += j.cost
	if e.avail > e.capacity {
		panic(fmt.Sprintf("serve: executor released past capacity (%d > %d)", e.avail, e.capacity))
	}
	e.dispatchLocked()
	e.mu.Unlock()
}

// stats reports the queue depth and the tokens currently held, for
// /metrics.
func (e *executor) stats() (queued, inUse int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue), e.capacity - e.avail
}

// QueueEntry is one waiting job as GET /v1/queue reports it: the run it
// will execute and the tokens it will hold.
type QueueEntry struct {
	RunID string `json:"runId"`
	Cost  int    `json:"cost"`
}

// pending snapshots the waiting jobs in FIFO order.
func (e *executor) pending() []QueueEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]QueueEntry, 0, len(e.queue))
	for _, j := range e.queue {
		out = append(out, QueueEntry{RunID: j.id, Cost: j.cost})
	}
	return out
}

// lineBuffer accumulates the NDJSON lines a run streams and broadcasts
// their arrival: an io.Writer on the producer side (fed by
// pcs.RunManyStream's encoder), a replay-then-follow reader on the SSE
// side. Every subscriber sees the full line sequence from the first frame
// regardless of when it attached, so MergeStream over a subscription is
// always MergeStream over the whole stream.
type lineBuffer struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	closed  bool
	wake    chan struct{}
}

// newLineBuffer returns an open, empty buffer.
func newLineBuffer() *lineBuffer {
	return &lineBuffer{wake: make(chan struct{})}
}

// Write appends encoder output, splitting completed lines off into the
// broadcast log. It never fails; the error is the io.Writer contract.
func (b *lineBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.partial = append(b.partial, p...)
	for {
		i := bytes.IndexByte(b.partial, '\n')
		if i < 0 {
			break
		}
		b.lines = append(b.lines, string(b.partial[:i]))
		b.partial = b.partial[i+1:]
	}
	b.wakeLocked()
	return len(p), nil
}

// close seals the buffer: a trailing unterminated line is flushed, and
// followers are woken a final time so they observe the end of the stream.
func (b *lineBuffer) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.partial) > 0 {
		b.lines = append(b.lines, string(b.partial))
		b.partial = nil
	}
	b.closed = true
	b.wakeLocked()
}

// wakeLocked rotates the broadcast channel, releasing current waiters.
// Caller holds b.mu.
func (b *lineBuffer) wakeLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// since returns the lines appended at or after index from, whether the
// buffer is sealed, and a channel that closes on the next append — the
// follow protocol: drain, then wait unless closed.
func (b *lineBuffer) since(from int) (lines []string, closed bool, wake <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < len(b.lines) {
		lines = append(lines, b.lines[from:]...)
	}
	return lines, b.closed, b.wake
}

// bytes returns the whole stream so far as NDJSON bytes (one trailing
// newline per line) — the MergeStream input.
func (b *lineBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out bytes.Buffer
	for _, ln := range b.lines {
		out.WriteString(ln)
		out.WriteByte('\n')
	}
	return out.Bytes()
}
