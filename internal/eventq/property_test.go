package eventq

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/vanetlab/relroute/internal/digest"
)

// refQueue is a deliberately naive reference implementation: a sorted-on-
// demand slice with (at, seq) keys and explicit ID bookkeeping. The real
// queue — heap-only or calendar — must match its pop order and its
// generation-stamp semantics exactly under arbitrary Schedule/Cancel/Pop
// interleavings, and pop every event with what it was scheduled to run.
type refQueue struct {
	ents []refEnt
	seq  uint64
	next int
}

type refEnt struct {
	at        float64
	seq       uint64
	id        int
	call      call
	cancelled bool
}

// call is what a handler event runs; the zero call marks a closure event.
type call struct {
	h   uint16
	arg int32
}

func (r *refQueue) schedule(at float64, c call) int {
	r.seq++
	r.next++
	r.ents = append(r.ents, refEnt{at: at, seq: r.seq, id: r.next, call: c})
	return r.next
}

func (r *refQueue) cancel(id int) bool {
	for i := range r.ents {
		if r.ents[i].id == id && !r.ents[i].cancelled {
			r.ents[i].cancelled = true
			return true
		}
	}
	return false
}

func (r *refQueue) pop() (float64, int, call, bool) {
	best := -1
	for i := range r.ents {
		if r.ents[i].cancelled {
			continue
		}
		if best < 0 || r.ents[i].at < r.ents[best].at ||
			(r.ents[i].at == r.ents[best].at && r.ents[i].seq < r.ents[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, call{}, false
	}
	e := r.ents[best]
	r.ents = append(r.ents[:best], r.ents[best+1:]...)
	return e.at, e.id, e.call, true
}

func (r *refQueue) len() int {
	n := 0
	for i := range r.ents {
		if !r.ents[i].cancelled {
			n++
		}
	}
	return n
}

// runInterleaving drives Queue and refQueue through the same randomized
// op sequence and fails on the first divergence. Times are drawn from a
// narrow range so equal-time FIFO ties are exercised constantly, and the
// op mix keeps the queue large enough to cross the calendar build
// threshold (and, with drift phases, to migrate heap overflow back in).
// About half the events are handler events (ScheduleCall) with a random
// non-zero handler and argument, drawn from a stream of their own so the
// op sequence of a seed does not depend on the mix; every pop must return
// the closure or the (h, arg) its event was scheduled with.
//
// With burst > 0, halfway through the ops it schedules burst events at one
// instant, mixed with spread and far-future ones, and cancels every third
// event of that burst phase before going on. It returns the deepest bucket
// seen right after the burst phase (0 without one).
func runInterleaving(t *testing.T, seed int64, ops, burst int) (deepest int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kinds := rand.New(rand.NewSource(^seed))
	var q Queue
	ref := &refQueue{}
	ids := make(map[int]ID)  // ref id → real id, pending only
	done := make(map[int]ID) // ref id → real id, fired: stale handles
	fired := make(map[int]bool)
	var order []int // ref ids in real pop order
	fire := func(rid int) {
		if fired[rid] {
			t.Fatalf("ref id %d fired twice", rid)
		}
		fired[rid] = true
		order = append(order, rid)
	}
	now := 0.0
	schedule := func(at float64) int {
		if kinds.Intn(2) == 0 {
			c := call{h: uint16(1 + kinds.Intn(65535)), arg: int32(kinds.Uint32())}
			rid := ref.schedule(at, c)
			ids[rid] = q.ScheduleCall(at, c.h, c.arg)
			return rid
		}
		rid := ref.schedule(at, call{})
		ids[rid] = q.Schedule(at, func() { fire(rid) })
		return rid
	}
	// run executes what the queue popped as ref id rid, which the reference
	// says was scheduled to run want.
	run := func(where string, rid int, want call, fn func(), h uint16, arg int32) {
		if (fn != nil) != (want.h == 0) || h != want.h || arg != want.arg {
			t.Fatalf("%s: ref id %d popped (fn set %v, h %d, arg %d), scheduled with (h %d, arg %d)", where, rid, fn != nil, h, arg, want.h, want.arg)
		}
		if fn != nil {
			fn()
		} else {
			fire(rid)
		}
	}

	for op := 0; op < ops; op++ {
		if burst > 0 && op == ops/2 {
			var phase []int
			at := now + 1
			for i := 0; i < burst; i++ {
				phase = append(phase, schedule(at))
				switch i % 8 {
				case 3:
					phase = append(phase, schedule(now+rng.Float64()*50))
				case 7:
					phase = append(phase, schedule(now+1e6+rng.Float64()*1e6))
				}
			}
			for i := 2; i < len(phase); i += 3 {
				if q.Cancel(ids[phase[i]]) != ref.cancel(phase[i]) {
					t.Fatalf("burst: Cancel(%d) disagrees with ref", phase[i])
				}
				delete(ids, phase[i])
			}
			for _, i := range q.heads {
				n := 0
				for ; i >= 0; i = q.slots[i].next {
					n++
				}
				deepest = max(deepest, n)
			}
		}
		switch r := rng.Float64(); {
		case r < 0.55 || q.Len() == 0:
			// Mix of near-future (dense, collision-heavy), same-time
			// (FIFO ties), and far-future (heap overflow) times.
			var at float64
			switch k := rng.Intn(10); {
			case k < 6:
				at = now + float64(rng.Intn(64)) // integral: forces ties
			case k < 8:
				at = now + rng.Float64()*50
			case k == 8:
				at = now + 1e6 + rng.Float64()*1e6 // far future
			default:
				at = now - rng.Float64()*5 // past: clamps to cursor
			}
			schedule(at)
		case r < 0.75:
			// Cancel a random pending event — or a stale/fired ID,
			// which must report false.
			if len(ids) > 0 && rng.Intn(4) > 0 {
				// drawn from the seeded stream over the ids in order, so
				// that a sequence replays from its seed
				pending := slices.Sorted(maps.Keys(ids))
				rid := pending[rng.Intn(len(pending))]
				gotReal := q.Cancel(ids[rid])
				gotRef := ref.cancel(rid)
				if gotReal != gotRef {
					t.Fatalf("op %d: Cancel(pending %d) = %v, ref %v", op, rid, gotReal, gotRef)
				}
				if q.Cancel(ids[rid]) {
					t.Fatalf("op %d: double Cancel(%d) reported true", op, rid)
				}
				delete(ids, rid)
			} else if len(order) > 0 {
				rid := order[rng.Intn(len(order))]
				if q.Cancel(done[rid]) {
					t.Fatalf("op %d: Cancel of fired id %d reported true", op, rid)
				}
			}
		default:
			at, fn, h, arg, ok := q.PopCall()
			rat, rid, rc, rok := ref.pop()
			if ok != rok {
				t.Fatalf("op %d: Pop ok=%v, ref %v", op, ok, rok)
			}
			if !ok {
				continue
			}
			if at != rat {
				t.Fatalf("op %d: Pop at=%v, ref %v", op, at, rat)
			}
			run(fmt.Sprintf("op %d", op), rid, rc, fn, h, arg)
			if n := len(order); n == 0 || order[n-1] != rid {
				t.Fatalf("op %d: popped ref id %v, want %d", op, order, rid)
			}
			if at > now {
				now = at
			}
			done[rid] = ids[rid]
			delete(ids, rid)
		}
		if q.Len() != ref.len() {
			t.Fatalf("op %d: Len=%d, ref %d", op, q.Len(), ref.len())
		}
	}
	// Drain both completely; tails must agree too.
	for {
		at, fn, h, arg, ok := q.PopCall()
		rat, rid, rc, rok := ref.pop()
		if ok != rok {
			t.Fatalf("drain: Pop ok=%v, ref %v", ok, rok)
		}
		if !ok {
			break
		}
		if at != rat {
			t.Fatalf("drain: Pop at=%v, ref %v", at, rat)
		}
		run("drain", rid, rc, fn, h, arg)
		if n := len(order); order[n-1] != rid {
			t.Fatalf("drain: popped wrong event, want ref id %d", rid)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue reports Len=%d", q.Len())
	}
	return deepest
}

func TestInterleavingsVsReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runInterleaving(t, seed, 3000, 0)
	}
}

// burstSeed, burstOps and burstSize are the deep-bucket trace: 600 events
// at one instant in a calendar already built, which no workload comes near
// (the deepest bucket in the benchmark's four workloads held 226 entries,
// on hwy-flood).
const (
	burstSeed = 5
	burstOps  = 3000
	burstSize = 600
)

// TestDeepBucketBurst checks pop order against the reference when one
// bucket holds hundreds of entries, a third of them cancelled, so the
// single unlinking walk is exercised at a depth far beyond the ~2 events
// per bucket the width policy targets.
func TestDeepBucketBurst(t *testing.T) {
	d := runInterleaving(t, burstSeed, burstOps, burstSize)
	if d < 500 {
		t.Fatalf("deepest bucket after the burst held %d entries, want >= 500", d)
	}
	t.Logf("deepest bucket after the burst: %d entries", d)
}

// FuzzInterleavings lets the fuzzer hunt for op sequences (via the seed)
// where the calendar layout diverges from the reference. Run with
// go test -fuzz=FuzzInterleavings ./internal/eventq.
func FuzzInterleavings(f *testing.F) {
	f.Add(int64(42), uint16(500), uint16(0))
	f.Add(int64(7), uint16(2000), uint16(0))
	f.Add(int64(burstSeed), uint16(burstOps), uint16(burstSize))
	f.Fuzz(func(t *testing.T, seed int64, ops, burst uint16) {
		runInterleaving(t, seed, int(ops)%4096, int(burst)%1024)
	})
}

// TestDigestLayoutInvariant pins the canonical-digest contract: the same
// logical pending set must digest identically whether it lives in the
// heap-only layout (newHeapOnly) or the calendar layout, regardless of the
// cancel/pop history that shaped the internal arrays.
func TestDigestLayoutInvariant(t *testing.T) {
	build := func(q *Queue) ([]float64, uint64, float64) {
		rng := rand.New(rand.NewSource(99))
		var ids []ID
		for i := 0; i < 2000; i++ {
			ids = append(ids, q.Schedule(rng.Float64()*100, func() {}))
		}
		for i := 0; i < 500; i++ {
			q.Cancel(ids[rng.Intn(len(ids))])
		}
		for i := 0; i < 700; i++ {
			q.Pop()
		}
		for i := 0; i < 300; i++ {
			q.Schedule(50+rng.Float64()*100, func() {})
		}
		var times []float64
		for _, e := range q.heap {
			if !q.slots[e.slot].cancelled {
				times = append(times, e.at)
			}
		}
		for _, i := range q.heads {
			for ; i >= 0; i = q.slots[i].next {
				if !q.slots[i].cancelled {
					times = append(times, q.slots[i].at)
				}
			}
		}
		sort.Float64s(times)
		d := digest.New()
		q.DigestInto(d)
		return times, d.Sum(), q.width
	}
	ht, hd, hw := build(newHeapOnly())
	ct, cd, cw := build(new(Queue))
	if hw != 0.0 {
		t.Fatalf("heap-only run still built a calendar")
	}
	if cw == 0 {
		t.Fatalf("calendar run never built a calendar; threshold drifted?")
	}
	if len(ht) != len(ct) {
		t.Fatalf("pending sets diverged: %d vs %d events", len(ht), len(ct))
	}
	for i := range ht {
		if ht[i] != ct[i] {
			t.Fatalf("pending times diverged at %d: %v vs %v", i, ht[i], ct[i])
		}
	}
	if hd != cd {
		t.Fatalf("digest differs across layouts: heap %x, calendar %x", hd, cd)
	}
}
