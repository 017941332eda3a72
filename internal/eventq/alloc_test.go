package eventq

import "testing"

// The queue must be allocation-free in steady state: slots and heap
// entries are recycled, so once the slab has grown to the working-set
// size, Schedule, Pop, and Cancel never touch the garbage collector.

func TestSchedulePopAllocFree(t *testing.T) {
	var q Queue
	fn := func() {}
	for i := 0; i < 256; i++ {
		q.Schedule(float64(i), fn)
	}
	at := 256.0
	allocs := testing.AllocsPerRun(1000, func() {
		q.Schedule(at, fn)
		at++
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Pop allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// warmCalendar drives q through enough schedule/pop churn (at ascending
// times spaced like a beacon workload) that the calendar layer builds and
// its geometry settles. It fails the test if the calendar never engages.
func warmCalendar(t *testing.T, q *Queue, pending int) float64 {
	t.Helper()
	fn := func() {}
	at := 0.0
	for i := 0; i < pending; i++ {
		q.Schedule(at, fn)
		at++
	}
	for i := 0; i < 2*calMinGaps+pending; i++ {
		q.Schedule(at, fn)
		at++
		q.Pop()
	}
	if q.width == 0 {
		t.Fatal("calendar never engaged during warm-up")
	}
	return at
}

// TestCalendarSchedulePopAllocFree pins the steady-state allocation
// behaviour of the calendar layout specifically: once built, Schedule+Pop
// cycles recycle bucket entries and slots without touching the allocator.
func TestCalendarSchedulePopAllocFree(t *testing.T) {
	var q Queue
	fn := func() {}
	at := warmCalendar(t, &q, 512)
	allocs := testing.AllocsPerRun(2000, func() {
		q.Schedule(at, fn)
		at++
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("calendar Schedule+Pop allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if q.width == 0 {
		t.Fatal("calendar tore down mid-measurement")
	}
}

// TestCalendarScheduleCancelAllocFree is the cancel-path pin for the
// calendar layout: armed-then-disarmed timers recycle through the bucket
// scan without allocating.
func TestCalendarScheduleCancelAllocFree(t *testing.T) {
	var q Queue
	fn := func() {}
	at := warmCalendar(t, &q, 512)
	allocs := testing.AllocsPerRun(2000, func() {
		id := q.Schedule(at, fn)
		at++
		q.Cancel(id)
		q.Schedule(at, fn) // keep the queue populated
		at++
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("calendar Schedule+Cancel allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestForceHeapSchedulePopAllocFree pins the heap-only layout (the
// newHeapOnly reference the layout-invariance tests compare against) to
// the same zero-alloc contract.
func TestForceHeapSchedulePopAllocFree(t *testing.T) {
	q := newHeapOnly()
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.Schedule(float64(i), fn)
	}
	at := 512.0
	allocs := testing.AllocsPerRun(2000, func() {
		q.Schedule(at, fn)
		at++
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("heap-only Schedule+Pop allocates %.1f objects/op, want 0", allocs)
	}
	if q.width != 0 {
		t.Fatal("heap-only queue built a calendar")
	}
}

func TestScheduleCancelAllocFree(t *testing.T) {
	var q Queue
	fn := func() {}
	// warm up: grow the slab past the working set, then drain
	ids := make([]ID, 0, 256)
	for i := 0; i < 256; i++ {
		ids = append(ids, q.Schedule(float64(i), fn))
	}
	for _, id := range ids {
		q.Cancel(id)
	}
	for {
		if _, ok := q.PeekTime(); !ok {
			break
		}
		q.Pop()
	}
	at := 1000.0
	allocs := testing.AllocsPerRun(100, func() {
		id := q.Schedule(at, fn)
		at++
		q.Cancel(id)
		q.PeekTime() // drains the cancelled head, recycling the slot
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Cancel allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
