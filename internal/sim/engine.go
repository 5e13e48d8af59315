// Package sim implements a deterministic discrete-event simulation engine:
// a virtual clock, a 4-ary heap event queue, and periodic tasks. All of the
// PCS reproduction's cluster, workload and service dynamics run on top of
// this engine.
//
// Time is a float64 number of seconds of virtual time. Events scheduled for
// the same instant fire in FIFO order of scheduling, which keeps runs
// reproducible.
package sim

import (
	"fmt"
	"math"
)

// Event is a callback scheduled to run at a point in virtual time.
type Event func(now float64)

type scheduledEvent struct {
	at    float64
	seq   uint64 // tie-break: FIFO among same-time events
	fn    Event
	index int // heap index, -1 once popped or cancelled
}

// EventHandle allows a scheduled event to be cancelled before it fires. It
// is a small value: copy it freely. The zero value is an inert handle whose
// Cancel is a no-op.
type EventHandle struct {
	ev     *scheduledEvent
	engine *Engine
	seq    uint64 // guards against the pooled event being reused
	at     float64
}

// Cancel removes the event from the queue. Cancelling an event that already
// fired or was already cancelled is a no-op — the event structs are pooled,
// so the handle's sequence number distinguishes its event from a later one
// reusing the same struct. It reports whether the event was actually
// removed.
func (h EventHandle) Cancel() bool {
	if h.ev == nil || h.ev.index < 0 || h.ev.seq != h.seq {
		return false
	}
	h.engine.remove(h.ev.index)
	h.engine.recycle(h.ev)
	return true
}

// Time returns the virtual time the event is (or was) scheduled for.
func (h EventHandle) Time() float64 { return h.at }

// before reports whether ev fires ahead of o: earlier time first, then
// earlier scheduling. (at, seq) is a strict total order — seq is unique —
// so the pop sequence does not depend on the heap's shape or arity.
func (ev *scheduledEvent) before(o *scheduledEvent) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the
// depth of a binary one, and the four children of a slot sit next to each
// other in memory, so sift-down touches fewer cache lines per level.
const heapArity = 4

// push inserts ev into the heap.
func (e *Engine) push(ev *scheduledEvent) {
	e.queue = append(e.queue, ev)
	e.up(len(e.queue)-1, ev)
}

// up moves ev, destined for slot i, towards the root until its parent
// fires ahead of it, keeping every displaced event's index current.
func (e *Engine) up(i int, ev *scheduledEvent) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / heapArity
		parent := q[p]
		if !ev.before(parent) {
			break
		}
		q[i] = parent
		parent.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down moves ev, destined for slot i, towards the leaves until no child
// fires ahead of it. It reports whether ev moved.
func (e *Engine) down(i int, ev *scheduledEvent) bool {
	q := e.queue
	n := len(q)
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		m := first
		last := min(first+heapArity, n)
		for c := first + 1; c < last; c++ {
			if q[c].before(q[m]) {
				m = c
			}
		}
		child := q[m]
		if !child.before(ev) {
			break
		}
		q[i] = child
		child.index = i
		i = m
	}
	q[i] = ev
	ev.index = i
	return i > start
}

// remove takes the event in slot i out of the heap and returns it; the
// caller recycles it, which marks it unqueued. Slot 0 is the pop.
func (e *Engine) remove(i int) *scheduledEvent {
	q := e.queue
	n := len(q) - 1
	ev, last := q[i], q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n && !e.down(i, last) {
		e.up(i, last)
	}
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	queue   []*scheduledEvent // 4-ary min-heap on (at, seq)
	seq     uint64
	stopped bool
	fired   uint64
	free    []*scheduledEvent // recycled event structs (hot-path pooling)
}

// NewEngine returns an engine with the clock at 0. The event queue is
// pre-sized so steady-state simulation rarely grows it; the event pool
// fills lazily from fired events.
func NewEngine() *Engine {
	return &Engine{queue: make([]*scheduledEvent, 0, 1024)}
}

// alloc takes an event struct from the pool, or allocates a fresh one.
func (e *Engine) alloc() *scheduledEvent {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &scheduledEvent{}
}

// recycle returns a popped or cancelled event struct to the pool. The
// struct's sequence number stays until reuse; outstanding handles detect
// staleness via index < 0 now and the seq mismatch after reuse.
func (e *Engine) recycle(ev *scheduledEvent) {
	ev.fn = nil
	ev.index = -1
	e.free = append(e.free, ev)
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a logic bug that would silently corrupt causality.
func (e *Engine) At(t float64, fn Event) EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %.9f before now %.9f", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic("sim: scheduling at non-finite time")
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.push(ev)
	return EventHandle{ev: ev, engine: e, seq: ev.seq, at: t}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn Event) EventHandle {
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// PeekNextTime reports the virtual time of the earliest queued event
// without executing it. The second return is false when the queue is empty.
// Together with Step it lets callers interleave observation with execution
// instead of handing the whole run to Run.
func (e *Engine) PeekNextTime() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Step pops the earliest queued event, advances the clock to its fire time
// and executes it. It reports false (and leaves the clock untouched) when
// the queue is empty. Step ignores the horizon and Stop — bounding a
// stepped run is the caller's job, typically via PeekNextTime.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	next := e.remove(0)
	e.now = next.at
	fn := next.fn
	e.recycle(next) // fn is saved; the struct may be reused by fn's own scheduling
	e.fired++
	fn(e.now)
	return true
}

// Run executes events in time order until the queue drains, the horizon is
// reached, or Stop is called. It returns the final virtual time. Events
// scheduled beyond the horizon remain queued; the clock is left at the
// horizon if it was reached. Run is a loop over the PeekNextTime/Step
// primitives; stepped and monolithic execution are interchangeable.
func (e *Engine) Run(horizon float64) float64 {
	e.stopped = false
	for !e.stopped {
		next, ok := e.PeekNextTime()
		if !ok {
			break
		}
		if next > horizon {
			e.now = horizon
			return e.now
		}
		e.Step()
	}
	if e.now < horizon && !e.stopped && !math.IsInf(horizon, 1) {
		e.now = horizon
	}
	return e.now
}

// RunUntilEmpty executes all queued events regardless of time.
func (e *Engine) RunUntilEmpty() float64 {
	return e.Run(math.Inf(1))
}

// Every schedules fn to run now+period, now+2·period, ... until the returned
// Ticker is stopped. The first invocation is one period from now (or at
// start if a positive start offset is supplied via EveryAt).
func (e *Engine) Every(period float64, fn Event) *Ticker {
	return e.EveryAt(e.now+period, period, fn)
}

// EveryAt schedules fn at absolute time first and then every period
// thereafter.
func (e *Engine) EveryAt(first, period float64, fn Event) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.handle = e.At(first, t.tick)
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period.
type Ticker struct {
	engine  *Engine
	period  float64
	fn      Event
	handle  EventHandle
	stopped bool
}

func (t *Ticker) tick(now float64) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.handle = t.engine.At(now+t.period, t.tick)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}
