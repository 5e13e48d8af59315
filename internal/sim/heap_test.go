package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// heapModel drives an Engine through random At/After/Cancel/Step
// interleavings and mirrors every scheduled event in a plain list, the
// reference the firing order is checked against.
type heapModel struct {
	t   *testing.T
	rng *rand.Rand
	e   *Engine

	live    []refEvent    // scheduled, not yet fired or cancelled
	stale   []EventHandle // handles of fired or cancelled events
	fired   []int         // ids in firing order, appended by the events
	nextID  int
	reused  int // stale handles whose struct was found back in the heap
	cancels map[string]int
}

type refEvent struct {
	id     int
	at     float64
	seq    uint64
	handle EventHandle
}

// schedule adds one event at a time drawn from a small grid, so many
// events tie on time and only seq orders them. A fired event may schedule
// another at its own instant, the nested same-time case.
func (m *heapModel) schedule() {
	id := m.nextID
	m.nextID++
	fn := func(now float64) {
		m.fired = append(m.fired, id)
		if m.rng.Intn(8) == 0 {
			m.scheduleAt(now)
		}
	}
	var h EventHandle
	if m.rng.Intn(2) == 0 {
		h = m.e.At(m.e.Now()+float64(m.rng.Intn(4))*0.25, fn)
	} else {
		h = m.e.After(float64(m.rng.Intn(4))*0.25, fn)
	}
	m.record(id, h)
}

func (m *heapModel) scheduleAt(t float64) {
	id := m.nextID
	m.nextID++
	m.record(id, m.e.At(t, func(float64) { m.fired = append(m.fired, id) }))
}

func (m *heapModel) record(id int, h EventHandle) {
	m.live = append(m.live, refEvent{id: id, at: h.Time(), seq: h.seq, handle: h})
}

// refMin returns the position in m.live of the event that must fire next.
func (m *heapModel) refMin() int {
	best := 0
	for i, r := range m.live[1:] {
		b := m.live[best]
		if r.at < b.at || (r.at == b.at && r.seq < b.seq) {
			best = i + 1
		}
	}
	return best
}

// cancelSlot cancels the live event sitting in heap slot i.
func (m *heapModel) cancelSlot(i int, where string) {
	ev := m.e.queue[i]
	k := slices.IndexFunc(m.live, func(r refEvent) bool { return r.handle.ev == ev && r.seq == ev.seq })
	if k < 0 {
		m.t.Fatalf("heap slot %d holds an event the model does not know", i)
	}
	r := m.live[k]
	if !r.handle.Cancel() {
		m.t.Fatalf("cancel of live event %d at slot %d (%s) returned false", r.id, i, where)
	}
	m.live = slices.Delete(m.live, k, k+1)
	m.stale = append(m.stale, r.handle)
	m.cancels[where]++
}

func (m *heapModel) step() {
	if len(m.live) == 0 {
		if m.e.Step() {
			m.t.Fatal("Step fired on an empty queue")
		}
		return
	}
	k := m.refMin()
	want := m.live[k]
	m.live = slices.Delete(m.live, k, k+1)
	n := len(m.fired)
	if !m.e.Step() {
		m.t.Fatal("Step reported an empty queue")
	}
	if got := m.fired[n]; got != want.id {
		m.t.Fatalf("fired event %d, reference order wants %d (at %v seq %d)", got, want.id, want.at, want.seq)
	}
	if m.e.Now() != want.at {
		m.t.Fatalf("clock %v after firing an event due at %v", m.e.Now(), want.at)
	}
	m.stale = append(m.stale, want.handle)
}

// cancelStale cancels a handle whose event already fired or was
// cancelled; its struct may since carry a new event, which must survive.
func (m *heapModel) cancelStale() {
	h := m.stale[m.rng.Intn(len(m.stale))]
	if h.ev.index >= 0 {
		m.reused++
	}
	pending := m.e.Pending()
	if h.Cancel() {
		m.t.Fatalf("stale handle (seq %d) cancelled a live event", h.seq)
	}
	if m.e.Pending() != pending {
		m.t.Fatal("stale Cancel changed the queue")
	}
}

// check verifies the heap order and that every event knows its slot.
func (m *heapModel) check() {
	q := m.e.queue
	if len(q) != len(m.live) {
		m.t.Fatalf("engine holds %d events, reference %d", len(q), len(m.live))
	}
	for i, ev := range q {
		if ev.index != i {
			m.t.Fatalf("slot %d holds an event with index %d", i, ev.index)
		}
		if i > 0 {
			if p := q[(i-1)/heapArity]; ev.before(p) {
				m.t.Fatalf("slot %d fires before its parent", i)
			}
		}
	}
}

func TestHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		m := &heapModel{t: t, rng: rand.New(rand.NewSource(seed)), e: NewEngine(), cancels: map[string]int{}}
		for op := 0; op < 3000; op++ {
			switch r := m.rng.Intn(20); {
			case r < 9:
				m.schedule()
			case r < 14:
				m.step()
			case r < 18 && len(m.live) > 0:
				n := len(m.e.queue)
				switch r {
				case 14:
					m.cancelSlot(0, "root")
				case 15:
					m.cancelSlot(n/2, "middle")
				case 16:
					m.cancelSlot(n-1, "last")
				default:
					m.cancelSlot(m.rng.Intn(n), "random")
				}
			case len(m.stale) > 0:
				m.cancelStale()
			}
			m.check()
		}
		for len(m.live) > 0 {
			m.step()
			m.check()
		}
		if m.e.Step() {
			t.Fatal("engine fired after the reference drained")
		}
		for _, where := range []string{"root", "middle", "last"} {
			if m.cancels[where] == 0 {
				t.Fatalf("seed %d never cancelled at the %s", seed, where)
			}
		}
		if m.reused == 0 {
			t.Fatalf("seed %d never cancelled a stale handle whose struct was reused", seed)
		}
	}
}
