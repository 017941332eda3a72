package sim

import (
	"fmt"
	"slices"
	"testing"
)

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []float64
	e.At(1, func() { fired = append(fired, e.Now()) })
	e.At(3, func() { fired = append(fired, e.Now()) })
	e.At(5, func() { fired = append(fired, e.Now()) })
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v, want clock parked at until", e.Now())
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired after second run = %v", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestAfterAndCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	id := e.After(2, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("cancel failed")
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled timer ran")
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := NewEngine(1)
	order := []string{}
	e.At(5, func() {
		e.At(1, func() { order = append(order, "past") }) // in the past
		order = append(order, "now")
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "now" || order[1] != "past" {
		t.Fatalf("order = %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []float64 {
		e := NewEngine(seed)
		rng := e.Rand()
		var times []float64
		var again func()
		again = func() {
			times = append(times, e.Now())
			e.After(rng.Float64(), again)
		}
		e.After(0, again)
		if err := e.Run(10); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	e := NewEngine(7)
	r1 := e.Rand()
	r2 := e.Rand()
	// consuming r1 must not change what r2 yields
	e2 := NewEngine(7)
	e2.Rand() // r1 counterpart, unconsumed
	r2b := e2.Rand()
	for i := 0; i < 10; i++ {
		r1.Float64()
	}
	for i := 0; i < 5; i++ {
		if r2.Float64() != r2b.Float64() {
			t.Fatal("stream 2 perturbed by stream 1 consumption")
		}
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var at []float64
	h := e.Handle(func(int32) { at = append(at, e.Now()) })
	e.Ticker(1, 2, 0, nil, h, 0)
	if err := e.Run(9); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	if len(at) != len(want) {
		t.Fatalf("ticks = %v", at)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", at, want)
		}
	}
}

func TestTickerJitterStaysPeriodicOnAverage(t *testing.T) {
	e := NewEngine(3)
	rng := e.Rand()
	count := 0
	e.Ticker(0, 1, 0.5, rng, e.Handle(func(int32) { count++ }), 0)
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if count < 900 || count > 1100 {
		t.Fatalf("ticks over 1000s with 1s jittered period = %d", count)
	}
}

func TestEventCountAndPending(t *testing.T) {
	e := NewEngine(1)
	e.After(1, func() {})
	e.After(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if e.EventCount() != 2 {
		t.Fatalf("event count = %d", e.EventCount())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d", e.Pending())
	}
}

// Handler events and closure events share one (time, scheduling order):
// same-instant events fire FIFO whichever kind they are, and each handler
// gets the argument it was scheduled with.
func TestHandlerEventsInterleaveWithClosures(t *testing.T) {
	e := NewEngine(1)
	var got []int32
	h := e.Handle(func(arg int32) { got = append(got, arg) })
	e.AfterCall(1, h, 10)
	e.After(1, func() { got = append(got, -1) })
	e.AtCall(1, h, 11)
	e.AtCall(0.5, h, 5)
	e.After(2, func() { e.AfterCall(-1, h, 20) }) // negative delay clamps to now
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	want := []int32{5, 10, -1, 11, 20}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// A ticker's handler may start another ticker, which grows the slab under
// the running one; each keeps its own argument and period.
func TestTickerStartedFromATicker(t *testing.T) {
	e := NewEngine(1)
	var got []string
	var h Handler
	h = e.Handle(func(arg int32) {
		got = append(got, fmt.Sprintf("%g:%d", e.Now(), arg))
		if arg == 0 && e.Now() == 0 {
			e.Ticker(0.5, 10, 0, nil, h, 1)
			e.Ticker(0.25, 10, 0, nil, h, 2)
		}
	})
	e.Ticker(0, 10, 0, nil, h, 0)
	if err := e.Run(11); err != nil {
		t.Fatal(err)
	}
	want := "[0:0 0.25:2 0.5:1 10:0 10.25:2 10.5:1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("ticks %v, want %v", got, want)
	}
}

// Handler events are what makes per-node timers cheap: once the queue's
// slab has grown, AfterCall, AtCall and every period of a running Ticker
// schedule without allocating.
func TestHandlerEventsAllocFree(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	h := e.Handle(func(int32) { fired++ })
	for i := int32(0); i < 64; i++ {
		e.Ticker(float64(i)/64, 1, 0.1, e.Rand(), h, i)
	}
	until := 10.0
	if err := e.Run(until); err != nil { // warm-up: the slab and the tickers settle
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		until++
		if err := e.Run(until); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("a running Ticker allocates %.1f objects per sim-s, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		e.AfterCall(0.25, h, 1)
		e.AtCall(until+0.5, h, 2)
		until++
		if err := e.Run(until); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("AfterCall+AtCall allocate %.1f objects per event, want 0", a)
	}
	if fired == 0 {
		t.Fatal("no handler event fired")
	}
}
