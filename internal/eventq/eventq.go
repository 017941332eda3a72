// Package eventq implements the cancellable priority queue that drives the
// discrete-event simulation engine. Events fire in non-decreasing time
// order; events scheduled for the same instant fire in the order they were
// scheduled (FIFO), which keeps runs deterministic.
//
// Storage is a two-level structure. Near-future events — beacon ticks,
// end-of-airtime, step ticks, the bulk of the workload — live in a calendar
// of power-of-two time buckets (a timer wheel keyed by absolute bucket
// index), giving O(1) amortized Schedule/Pop/Cancel. Far-future events
// overflow into a binary heap and migrate into the calendar as the cursor
// advances. Small queues run heap-only; the calendar switches on once the
// queue is big enough for the bucket math to pay for itself, with the
// bucket width adapted from the observed inter-pop gap. The split is
// invisible to callers: pop order is exactly (time, seq) regardless of
// which side an event sits on.
//
// The queue is allocation-free in steady state: callbacks live in a slab of
// slots recycled through a free list, calendar and heap entries carry their
// own (time, seq) sort key so comparisons never chase a pointer, and IDs
// carry a generation stamp so a recycled slot cannot be cancelled through a
// stale handle. After warm-up — including the one-time calendar build —
// Schedule, Pop, and Cancel do not allocate.
package eventq

import (
	"math/bits"
	"slices"
	"sort"

	"github.com/vanetlab/relroute/internal/digest"
)

// ID identifies a scheduled event so it can be cancelled. The zero ID is
// never issued. An ID packs the slot index (high 32 bits) and the slot's
// generation at scheduling time (low 32 bits); generations start at 1 and
// bump on every cancel/pop, so stale IDs are rejected without a map.
type ID uint64

func makeID(slot int32, gen uint32) ID { return ID(uint64(slot)<<32 | uint64(gen)) }

func (id ID) slot() int32 { return int32(id >> 32) }
func (id ID) gen() uint32 { return uint32(id) }

// slot holds the callback of one scheduled event. A slot is live (its
// generation matches outstanding IDs), cancelled (still referenced by a
// calendar or heap entry, lazily drained), or free (on the free list).
type slot struct {
	fn        func()
	gen       uint32
	cancelled bool
}

// ent is one queue entry: the sort key inline plus the slot index.
type ent struct {
	at   float64
	seq  uint64 // tie-breaker for equal times: insertion order
	slot int32
}

func (a ent) before(b ent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// calMinLive is the live-event count above which the calendar layer
	// switches on. Below it a plain heap is both smaller and faster.
	calMinLive = 64
	// calMinGaps is how many inter-pop gap samples must accumulate before
	// the first calendar build, so the initial bucket width is informed.
	calMinGaps = 32
	// maxBuckets bounds the ring; beyond it, extra events simply deepen
	// the buckets, which stays O(live/nb) per pop.
	maxBuckets = 1 << 16
	// bucketCap is the initial per-bucket capacity, sized for the ~2
	// events/bucket the width policy targets, so steady-state appends
	// never grow a bucket.
	bucketCap = 4
	// maxBucketFloat guards the float→int64 bucket-index conversion:
	// indices at or beyond it (including +Inf and NaN) go to the heap.
	maxBucketFloat = float64(1 << 62)
	// widthCheckEvery is how many pops pass between bucket-width drift
	// checks once the calendar is live.
	widthCheckEvery = 4096
	// sortAbove is the bucket depth beyond which the cursor bucket is
	// sorted once and consumed from the tail instead of min-scanned per
	// pop. Contention bursts (MAC backoff storms) pile hundreds of
	// events into one bucket; sorting turns that from O(k) per pop into
	// O(log k) amortized.
	sortAbove = 12
)

// Queue is a time-ordered event queue. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulation engine owns it.
type Queue struct {
	slots []slot
	free  []int32 // recycled slot indices
	seq   uint64
	live  int // scheduled and not cancelled

	// heap holds all events while the calendar is off, and far-future
	// overflow (at beyond the calendar window) once it is on.
	heap []ent

	// Calendar ring. width == 0 means the calendar is off. cur is the
	// cursor's absolute bucket index (at/width truncated); an event maps
	// into the ring iff its index falls in [cur, cur+nb). Entries within
	// a bucket are unordered; pops scan the cursor bucket for the
	// (at, seq) minimum, which the ~2 events/bucket width policy keeps
	// O(1) amortized.
	width    float64
	nb       int // power of two
	mask     int64
	cur      int64
	buckets  [][]ent
	occ      []uint64 // occupancy bitmap, one bit per bucket
	calCount int
	sortedBI int // physical index of the one descending-sorted bucket, -1 if none

	// Inter-pop gap statistics feeding the width policy (decayed sums).
	// Zero gaps (same-instant events) count toward the mean: they are
	// real bucket occupancy, and ignoring them would widen buckets by
	// exactly the same-time multiplicity.
	lastPop float64
	havePop bool
	gapSum  float64
	gapCnt  int
	sincChk int

	// heapOnly keeps the calendar off for good — the pre-calendar layout.
	// Only this package's tests set it (newHeapOnly), as the reference
	// side of the layout-invariance and before/after comparisons.
	heapOnly bool

	// cancelPending counts cancelled entries still sitting in a bucket
	// or the heap. While zero — the overwhelmingly common case — bucket
	// scans skip the per-entry slot dereference entirely.
	cancelPending int

	// Peek cache: the engine calls PeekTime then Pop back to back; the
	// min found by the first call is reused by the second. Any Schedule
	// or Cancel invalidates it.
	pkValid  bool
	pkHeap   bool
	pkBucket int
	pkIdx    int

	scratch []ent // rebuild + digest scratch
}

// Len returns the number of pending (non-cancelled) events.
func (q *Queue) Len() int { return q.live }

// Schedule enqueues fn to run at time at and returns a handle that can be
// passed to Cancel. It does not allocate once the slab has grown to the
// queue's steady-state size.
func (q *Queue) Schedule(at float64, fn func()) ID {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slots = append(q.slots, slot{gen: 1})
		idx = int32(len(q.slots) - 1)
	}
	q.seq++
	s := &q.slots[idx]
	s.fn = fn
	s.cancelled = false
	id := makeID(idx, s.gen)
	q.insert(ent{at: at, seq: q.seq, slot: idx})
	q.live++
	return id
}

// insert places e into the calendar when it maps into the current window,
// else into the heap.
func (q *Queue) insert(e ent) {
	q.pkValid = false
	if q.width > 0 {
		if b, ok := q.bucketFor(e.at); ok {
			q.putBucket(int(b&q.mask), e)
			if q.calCount > 2*q.nb && q.nb < maxBuckets {
				q.rebuild()
			}
			return
		}
	}
	q.heap = append(q.heap, e)
	q.siftUp(len(q.heap) - 1)
}

// putBucket appends e to physical bucket p — or, when p is the sorted
// cursor bucket, splices it in at its (at, seq) rank so the descending
// order (minimum at the tail) survives.
func (q *Queue) putBucket(p int, e ent) {
	bkt := q.buckets[p]
	if p == q.sortedBI {
		pos := sort.Search(len(bkt), func(i int) bool { return bkt[i].before(e) })
		bkt = append(bkt, ent{})
		copy(bkt[pos+1:], bkt[pos:])
		bkt[pos] = e
	} else {
		bkt = append(bkt, e)
	}
	q.buckets[p] = bkt
	q.occ[p>>6] |= 1 << uint(p&63)
	q.calCount++
}

// bucketFor maps a time to an absolute bucket index within the current
// window. Past times clamp to the cursor bucket (they must still pop first,
// which the in-bucket (at, seq) scan guarantees); times at or beyond the
// window end — or not representable as a bucket index — report false and
// overflow to the heap.
func (q *Queue) bucketFor(at float64) (int64, bool) {
	f := at / q.width
	if !(f < maxBucketFloat) {
		return 0, false
	}
	b := int64(f)
	if b < q.cur {
		b = q.cur
	}
	if b >= q.cur+int64(q.nb) {
		return 0, false
	}
	return b, true
}

// Cancel removes a pending event. Cancelling an already-fired or unknown
// event is a no-op and reports false.
func (q *Queue) Cancel(id ID) bool {
	idx := id.slot()
	if idx < 0 || int(idx) >= len(q.slots) {
		return false
	}
	s := &q.slots[idx]
	if s.gen != id.gen() {
		return false // already fired, already cancelled, or recycled
	}
	s.cancelled = true
	s.fn = nil // release the closure immediately
	s.gen++    // stale handles (including double cancels) now mismatch
	q.live--
	q.cancelPending++
	q.pkValid = false
	return true
}

// PeekTime returns the time of the next pending event. ok is false when the
// queue is empty.
func (q *Queue) PeekTime() (at float64, ok bool) {
	if !q.findMin() {
		return 0, false
	}
	if q.pkHeap {
		return q.heap[0].at, true
	}
	return q.buckets[q.pkBucket][q.pkIdx].at, true
}

// Pop removes and returns the next event's time and callback. ok is false
// when the queue is empty.
func (q *Queue) Pop() (at float64, fn func(), ok bool) {
	if !q.findMin() {
		return 0, nil, false
	}
	var e ent
	if q.pkHeap {
		e = q.heap[0]
		q.removeRoot()
	} else {
		bi := q.pkBucket
		bkt := q.buckets[bi]
		e = bkt[q.pkIdx]
		last := len(bkt) - 1
		bkt[q.pkIdx] = bkt[last]
		q.buckets[bi] = bkt[:last]
		if last == 0 {
			q.occ[bi>>6] &^= 1 << uint(bi&63)
			if bi == q.sortedBI {
				q.sortedBI = -1
			}
		}
		q.calCount--
	}
	q.pkValid = false
	s := &q.slots[e.slot]
	fn = s.fn
	s.fn = nil
	s.gen++
	q.free = append(q.free, e.slot)
	q.live--
	q.notePop(e.at)
	q.maintain()
	return e.at, fn, true
}

// findMin locates the next live event and records its position in the peek
// cache. It reports false when the queue is empty. On the way it drains
// cancelled entries it walks over, migrates heap overflow that the
// advancing cursor has brought into the window, and moves the cursor to
// the first occupied bucket.
func (q *Queue) findMin() bool {
	if q.pkValid {
		return true
	}
	q.drainHeapHead()
	if q.width == 0 {
		if len(q.heap) == 0 {
			return false
		}
		q.pkValid, q.pkHeap = true, true
		return true
	}
restart:
	if q.calCount == 0 {
		if len(q.heap) == 0 {
			return false
		}
		// Jump the cursor forward to the heap head's bucket so migration
		// can pull it (and its neighbourhood) into the ring.
		if f := q.heap[0].at / q.width; f < maxBucketFloat {
			if b := int64(f); b > q.cur {
				q.cur = b
			}
		}
	}
	q.migrate()
	if q.calCount == 0 {
		// Nothing migratable: the remaining events are beyond the
		// representable window; serve them straight from the heap.
		if len(q.heap) == 0 {
			return false
		}
		q.pkValid, q.pkHeap = true, true
		return true
	}
	for {
		q.cur = q.nextOcc(q.cur)
		bi := int(q.cur & q.mask)
		bkt := q.buckets[bi]
		best := -1
		if q.cancelPending == 0 {
			switch {
			case bi == q.sortedBI:
				// Sorted cursor bucket: the minimum is at the tail.
				best = len(bkt) - 1
			case len(bkt) > sortAbove:
				// Deep bucket (a contention burst): sort it once,
				// descending, and consume from the tail from now on.
				slices.SortFunc(bkt, func(a, b ent) int {
					if a.before(b) {
						return 1
					}
					if b.before(a) {
						return -1
					}
					return 0
				})
				q.sortedBI = bi
				best = len(bkt) - 1
			default:
				// Shallow bucket: a pure (at, seq) min scan over a
				// contiguous slice.
				var bestE ent
				for i, e := range bkt {
					if best < 0 || e.before(bestE) {
						best, bestE = i, e
					}
				}
			}
		} else {
			if bi == q.sortedBI {
				q.sortedBI = -1 // compaction below breaks the order
			}
			for i := 0; i < len(bkt); {
				s := &q.slots[bkt[i].slot]
				if s.cancelled {
					s.cancelled = false
					q.free = append(q.free, bkt[i].slot)
					q.cancelPending--
					last := len(bkt) - 1
					bkt[i] = bkt[last]
					bkt = bkt[:last]
					q.calCount--
					continue
				}
				if best < 0 || bkt[i].before(bkt[best]) {
					best = i
				}
				i++
			}
			q.buckets[bi] = bkt
		}
		if best < 0 {
			q.occ[bi>>6] &^= 1 << uint(bi&63)
			if q.calCount == 0 {
				goto restart
			}
			continue
		}
		q.pkValid, q.pkHeap = true, false
		q.pkBucket, q.pkIdx = bi, best
		return true
	}
}

// migrate moves heap-overflow events that now fall inside the calendar
// window into their buckets. Heap entries are time-ordered, so it only ever
// needs to look at the head.
func (q *Queue) migrate() {
	limit := float64(q.cur+int64(q.nb)) * q.width
	for len(q.heap) > 0 && q.heap[0].at < limit {
		e := q.heap[0]
		q.removeRoot()
		s := &q.slots[e.slot]
		if s.cancelled {
			s.cancelled = false
			q.free = append(q.free, e.slot)
			q.cancelPending--
			continue
		}
		b, ok := q.bucketFor(e.at)
		if !ok {
			// Float rounding put at/width exactly on the window edge;
			// push back and stop rather than loop.
			q.heap = append(q.heap, e)
			q.siftUp(len(q.heap) - 1)
			return
		}
		q.putBucket(int(b&q.mask), e)
	}
}

// nextOcc returns the absolute index of the first occupied bucket at or
// after from. The caller guarantees calCount > 0, so a set bit exists
// within one lap of the ring.
func (q *Queue) nextOcc(from int64) int64 {
	p := int(from & q.mask)
	wi := p >> 6
	word := q.occ[wi] & (^uint64(0) << uint(p&63))
	for {
		if word != 0 {
			bit := wi<<6 + bits.TrailingZeros64(word)
			d := bit - p
			if d < 0 {
				d += q.nb
			}
			return from + int64(d)
		}
		wi++
		if wi == len(q.occ) {
			wi = 0
		}
		word = q.occ[wi]
	}
}

// notePop feeds the inter-pop gap statistics behind the width policy. The
// sums decay by half every 256 samples so the estimate tracks the current
// workload, not the run's history.
func (q *Queue) notePop(at float64) {
	if q.havePop {
		if gap := at - q.lastPop; gap >= 0 {
			q.gapSum += gap
			q.gapCnt++
			if q.gapCnt >= 256 {
				q.gapSum *= 0.5
				q.gapCnt /= 2
			}
		}
	}
	q.lastPop = at
	q.havePop = true
}

// targetWidth is the bucket width the gap statistics currently suggest:
// twice the mean inter-pop gap, i.e. ~2 events per bucket.
func (q *Queue) targetWidth() float64 {
	if q.gapCnt == 0 {
		return 0
	}
	w := 2 * q.gapSum / float64(q.gapCnt)
	if w < 1e-9 {
		w = 1e-9
	}
	return w
}

// maintain runs the calendar policy after each pop: first build once the
// queue is big enough and the gap estimate has settled, shrink back to
// heap-only when the queue empties out, and rebuild when the bucket width
// has drifted an order of magnitude from target.
func (q *Queue) maintain() {
	if q.heapOnly {
		return
	}
	if q.width == 0 {
		if q.live >= calMinLive && q.gapCnt >= calMinGaps {
			q.rebuild()
		}
		return
	}
	if q.live < calMinLive/2 {
		q.teardown()
		return
	}
	q.sincChk++
	if q.sincChk >= widthCheckEvery {
		q.sincChk = 0
		if w := q.targetWidth(); w > 0 && (w > q.width*8 || w < q.width/8) {
			q.rebuild()
		} else if q.live > 2*q.nb*bucketCap && q.nb < maxBuckets {
			q.rebuild()
		} else if q.nb > calMinLive && q.live < q.nb/8 {
			q.rebuild()
		}
	}
}

// collectLive drains every pending entry (dropping cancelled ones and
// recycling their slots) into scratch and empties both layers.
func (q *Queue) collectLive() {
	q.pkValid = false
	q.scratch = q.scratch[:0]
	for _, e := range q.heap {
		s := &q.slots[e.slot]
		if s.cancelled {
			s.cancelled = false
			q.free = append(q.free, e.slot)
			q.cancelPending--
			continue
		}
		q.scratch = append(q.scratch, e)
	}
	q.heap = q.heap[:0]
	for bi := range q.buckets {
		for _, e := range q.buckets[bi] {
			s := &q.slots[e.slot]
			if s.cancelled {
				s.cancelled = false
				q.free = append(q.free, e.slot)
				q.cancelPending--
				continue
			}
			q.scratch = append(q.scratch, e)
		}
		q.buckets[bi] = q.buckets[bi][:0]
	}
	for i := range q.occ {
		q.occ[i] = 0
	}
	q.calCount = 0
	q.sortedBI = -1
}

// rebuild re-derives the calendar geometry from the live count and gap
// statistics and redistributes every pending event. Amortized over the
// pops between rebuilds this is O(1) per operation.
func (q *Queue) rebuild() {
	q.collectLive()
	w := q.targetWidth()
	if w <= 0 {
		w = q.width
	}
	if w <= 0 {
		// No gap data at all; leave everything on the heap.
		q.reheap()
		return
	}
	nb := calMinLive
	for nb < len(q.scratch) && nb < maxBuckets {
		nb <<= 1
	}
	if nb != q.nb || q.buckets == nil {
		q.buckets = make([][]ent, nb)
		back := make([]ent, nb*bucketCap)
		for i := range q.buckets {
			q.buckets[i] = back[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
		q.occ = make([]uint64, (nb+63)/64)
		q.nb = nb
		q.mask = int64(nb - 1)
	}
	q.width = w
	// Anchor the window at the earliest pending event (or the last pop
	// time) so the whole near future is representable.
	anchor := q.lastPop
	if len(q.scratch) > 0 {
		min := q.scratch[0]
		for _, e := range q.scratch[1:] {
			if e.before(min) {
				min = e
			}
		}
		if min.at < anchor || !q.havePop {
			anchor = min.at
		}
	}
	if f := anchor / w; f < maxBucketFloat && f > -maxBucketFloat {
		q.cur = int64(f)
	} else {
		q.cur = 0
	}
	if q.cur < 0 {
		q.cur = 0
	}
	for _, e := range q.scratch {
		if b, ok := q.bucketFor(e.at); ok {
			p := int(b & q.mask)
			q.buckets[p] = append(q.buckets[p], e)
			q.occ[p>>6] |= 1 << uint(p&63)
			q.calCount++
			continue
		}
		q.heap = append(q.heap, e)
		q.siftUp(len(q.heap) - 1)
	}
	q.scratch = q.scratch[:0]
}

// teardown switches back to heap-only storage (small queues).
func (q *Queue) teardown() {
	q.collectLive()
	q.width = 0
	q.reheap()
}

// reheap pushes everything in scratch back onto the heap.
func (q *Queue) reheap() {
	for _, e := range q.scratch {
		q.heap = append(q.heap, e)
		q.siftUp(len(q.heap) - 1)
	}
	q.scratch = q.scratch[:0]
}

// DigestInto folds the queue's logical state into d for checkpoint
// verification: the global sequence counter, the live count, and every
// pending non-cancelled event's (time, sequence) key in canonical pop
// order. The digest is layout-invariant by construction — it does not see
// slot indices, generations, bucket geometry, or heap shape — so a
// snapshot captured under one storage layout (heap-only vs calendar)
// verifies under the other. The callbacks themselves are intentionally
// excluded: closures are process-local and are re-derived on restore by
// rebuilding the scenario and replaying to the checkpoint time.
func (q *Queue) DigestInto(d *digest.Writer) {
	d.U64(q.seq)
	d.Int(q.live)
	sc := q.scratch[:0]
	for _, e := range q.heap {
		if !q.slots[e.slot].cancelled {
			sc = append(sc, e)
		}
	}
	for bi := range q.buckets {
		for _, e := range q.buckets[bi] {
			if !q.slots[e.slot].cancelled {
				sc = append(sc, e)
			}
		}
	}
	// Sort into (at, seq) pop order: canonical regardless of which layer
	// each event sat in.
	slices.SortFunc(sc, func(a, b ent) int {
		if a.before(b) {
			return -1
		}
		if b.before(a) {
			return 1
		}
		return 0
	})
	for _, e := range sc {
		d.F64(e.at)
		d.U64(e.seq)
	}
	q.scratch = sc[:0]
}

// drainHeapHead lazily discards cancelled events sitting at the heap head.
func (q *Queue) drainHeapHead() {
	for len(q.heap) > 0 {
		idx := q.heap[0].slot
		if !q.slots[idx].cancelled {
			return
		}
		q.slots[idx].cancelled = false
		q.removeRoot()
		q.free = append(q.free, idx)
		q.cancelPending--
	}
}

// removeRoot removes the heap root and restores the heap property.
func (q *Queue) removeRoot() {
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
}

func (q *Queue) siftUp(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	e := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h[right].before(h[left]) {
			smallest = right
		}
		if !h[smallest].before(e) {
			break
		}
		h[i] = h[smallest]
		i = smallest
	}
	h[i] = e
}
