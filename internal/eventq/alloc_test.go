package eventq

import (
	"testing"
	"unsafe"
)

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

// TestSlotIs40Bytes pins the slot layout: the handler index and argument
// live in what was the tail padding after cancelled. Every pending event
// costs one slot, and each byte more shows in the set-up of a world that
// schedules thousands of events before its calendar exists.
func TestSlotIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 40 {
		t.Fatalf("slot is %d bytes, want 40", got)
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

// TestCalendarBurstyScheduleAllocFree pins the calendar under bursty
// traffic: every measured iteration lands a cluster of burst events, more
// than the ~2 per bucket the width policy targets, in a physical bucket no
// earlier iteration used, then pops as many. Storage that grows per bucket
// allocates on each of those first visits; AllocsPerRun's integer division
// still reads at least 1 when every iteration allocates once.
func TestCalendarBurstyScheduleAllocFree(t *testing.T) {
	const burst = 9
	var q Queue
	fn := func() {}
	at := warmCalendar(t, &q, 512)
	width, nb := q.width, q.nb
	used := make([]bool, nb)
	reused := false
	allocs := testing.AllocsPerRun(100, func() {
		p := int(int64(at/q.width) & q.mask)
		reused = reused || used[p]
		used[p] = true
		for i := 0; i < burst; i++ {
			q.Schedule(at, fn)
		}
		at += burst // keeps the mean inter-pop gap, and so the width
		for i := 0; i < burst; i++ {
			q.Pop()
		}
	})
	if reused {
		t.Fatal("two clusters shared a physical bucket; the test no longer measures first visits")
	}
	if q.width != width || q.nb != nb || len(q.heap) != 0 {
		t.Fatalf("calendar changed mid-measurement: width %v→%v, nb %d→%d, %d in the heap", width, q.width, nb, q.nb, len(q.heap))
	}
	if allocs != 0 {
		t.Fatalf("bursty calendar Schedule+Pop allocates %.1f objects/op, want 0", allocs)
	}
}
