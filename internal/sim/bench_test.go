package sim

import (
	"math/rand"
	"testing"
)

// benchPending is the steady-state queue depth of the engine benchmarks,
// about what a nutch-search run under load keeps queued.
const benchPending = 1024

// benchDelays returns a fixed table of event delays; drawing from a table
// keeps random-number generation out of the measured loop.
func benchDelays() []float64 {
	rng := rand.New(rand.NewSource(1))
	d := make([]float64, 4096)
	for i := range d {
		d[i] = rng.ExpFloat64() * 1e-3
	}
	return d
}

// BenchmarkEngineScheduleFire measures one schedule plus one fire with
// benchPending events queued: every fired event schedules its successor.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	delays := benchDelays()
	k := 0
	var fn Event
	fn = func(float64) {
		e.After(delays[k&(len(delays)-1)], fn)
		k++
	}
	for i := 0; i < benchPending; i++ {
		e.After(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineScheduleCancelFire is the cancel variant: every fired
// event schedules its successor plus a timer, and cancels the timer the
// previous event armed, as request timeouts and redundancy cancellations
// do.
func BenchmarkEngineScheduleCancelFire(b *testing.B) {
	e := NewEngine()
	delays := benchDelays()
	k := 0
	var armed EventHandle
	nop := func(float64) {}
	var fn Event
	fn = func(float64) {
		armed.Cancel()
		e.After(delays[k&(len(delays)-1)], fn)
		armed = e.After(2*delays[(k+1)&(len(delays)-1)], nop)
		k += 2
	}
	for i := 0; i < benchPending; i++ {
		e.After(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
