package eventq

import (
	"strconv"
	"testing"
)

// BenchmarkSchedulePop measures the steady-state cost of one
// Schedule+Pop pair over a queue pre-warmed with 1024 pending events —
// the engine's per-event hot path.
func BenchmarkSchedulePop(b *testing.B) {
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Schedule(float64(i), fn)
	}
	t := 1024.0
	// Warm past the lazy calendar build so short -benchtime runs measure
	// the steady state.
	for i := 0; i < 1024; i++ {
		q.Schedule(t, fn)
		t++
		q.Pop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q.Schedule(t, fn)
		t++
		q.Pop()
	}
}

// benchMixedWorkload drives the queue with the engine's characteristic
// mix: n periodic producers (beacon-style tickers with distinct phases)
// plus a one-shot event per op (end-of-airtime style) that fires shortly
// after scheduling, and a timer that is armed and immediately cancelled
// every 8th op (ARQ style). One benchmark op = one pop + the reschedules
// it triggers.
func benchMixedWorkload(b *testing.B, q *Queue, producers int) {
	period := 1.0
	phase := period / float64(producers)
	for i := 0; i < producers; i++ {
		q.Schedule(float64(i)*phase, func() {})
	}
	now := 0.0
	op := func(n int) {
		at, _, ok := q.Pop()
		if !ok {
			b.Fatal("queue drained")
		}
		now = at
		// periodic producer reschedule
		q.Schedule(now+period, func() {})
		if n%2 == 0 {
			// inject a one-shot near-future event ...
			q.Schedule(now+phase*0.5, func() {})
		} else if _, _, ok := q.Pop(); !ok {
			// ... and drain it the next op, keeping the queue size flat
			b.Fatal("queue drained")
		}
		// armed-then-disarmed timer
		if n%8 == 0 {
			id := q.Schedule(now+5*period, func() {})
			q.Cancel(id)
		}
	}
	// Warm-up: enough ops to accumulate the gap samples that trigger the
	// one-time calendar build, so short -benchtime runs measure steady
	// state rather than amortizing the build over a handful of ops.
	for n := 0; n < 1024; n++ {
		op(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		op(n)
	}
}

// BenchmarkEventqCalendar measures the mixed periodic/one-shot workload on
// the default two-level layout (calendar + overflow heap).
func BenchmarkEventqCalendar(b *testing.B) {
	for _, producers := range []int{1000, 10000} {
		b.Run(strconv.Itoa(producers), func(b *testing.B) {
			benchMixedWorkload(b, new(Queue), producers)
		})
	}
}

// BenchmarkEventqHeap is the identical workload pinned to the heap-only
// layout (newHeapOnly) — the before/after pair for the calendar front end.
func BenchmarkEventqHeap(b *testing.B) {
	for _, producers := range []int{1000, 10000} {
		b.Run(strconv.Itoa(producers), func(b *testing.B) {
			benchMixedWorkload(b, newHeapOnly(), producers)
		})
	}
}

// BenchmarkScheduleCancel measures Schedule immediately followed by
// Cancel — the timer-armed-then-disarmed pattern ARQ and route timeouts
// produce.
func BenchmarkScheduleCancel(b *testing.B) {
	var q Queue
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := q.Schedule(float64(n), fn)
		q.Cancel(id)
		if n%1024 == 0 {
			// drain lazily-cancelled slots so the heap stays bounded
			for {
				if _, ok := q.PeekTime(); !ok {
					break
				}
				q.Pop()
			}
		}
	}
}
