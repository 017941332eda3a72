// Package mac implements a simplified CSMA broadcast MAC over the channel
// models: frames occupy airtime, senders defer while the medium around
// them is busy, and receptions that overlap in time at a receiver are
// destroyed. That is the minimum realism needed to reproduce the broadcast
// storm problem (Ni et al. [5]) that Table I's "connectivity" row hinges
// on, without modelling full 802.11p EDCA.
//
// The layer is allocation-free in steady state: reception records are
// plain values in buffers recycled through a layer-wide free list (one per
// frame on the air, not one per node), backoff and end-of-airtime events
// are two engine handlers registered once per layer and scheduled against
// the node ID, per-node state lives in dense slices keyed by node ID, and
// transmit queues are ring buffers. A node's sender state is carved from
// chunks of many at a time and carries its first 8-frame queue buffer, so
// a node's first Send costs a fraction of an allocation. The simulation
// engine is single-threaded, so none of it needs synchronisation.
//
// The transmit path is amortized over mobility epochs: candidate
// receivers and their distances come from the shared radio.Cache instead
// of a per-frame grid scan, and a frame's receptions are resolved by one
// end-of-airtime event at the sender instead of one event per receiver.
// Both transformations are exactly order-preserving — see transmit and
// finishTx.
//
// Carrier sense and collision marking are O(1) per reception: instead of
// a per-node list of in-flight reception records that every arrival scans
// and every resolution compacts, each node keeps a tiny arrival history —
// the latest airtime end plus the last two distinct arrival instants with
// their multiplicities — in Layer.arr, a slice of 32-byte values apart from
// the sender-side nodeState: a frame's fan-out reads and writes one of them
// per receiver, and at highway density those receivers are adjacent IDs.
// Because a reception is destroyed exactly when
// another frame's energy overlaps it at the same receiver, the verdict at
// its end time e for a frame that arrived at s reduces to: was anything
// still on the air at s (recorded at arrival), or did any arrival land in
// [s, e) afterwards — which only ever needs the two most recent distinct
// arrival times, since the query always runs at e = now. See transmit and
// finishTx for the exact equivalence argument.
//
// Every stochastic draw of a reception (channel decodability, fault-plane
// loss) happens in candidate order — the draw-order contract pinned by
// TestRNGDrawOrderContract.
package mac

import (
	"math/rand"
	"slices"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/radio"
	"github.com/vanetlab/relroute/internal/sim"
)

// Broadcast is the link-layer broadcast address.
const Broadcast int32 = -1

// Frame is one link-layer transmission.
type Frame struct {
	From    int32
	To      int32 // Broadcast or a node id
	Size    int   // bytes, including headers
	Payload any

	attempts int // link-layer retransmissions so far (unicast ARQ)
}

// Config holds MAC parameters.
type Config struct {
	// BitRate in bits/s. Zero means 6 Mb/s (the 802.11p base rate).
	BitRate float64
	// MaxBackoff is the maximum random access delay in seconds drawn
	// before each transmission attempt. Zero means 2 ms.
	MaxBackoff float64
	// MaxRetries bounds busy-medium deferrals per frame. Zero means 7.
	MaxRetries int
	// QueueCap bounds the per-node transmit queue. Zero means 64.
	QueueCap int
	// LinkRetries is the unicast ARQ budget: how many times a unicast
	// frame is retransmitted when the addressed receiver did not decode
	// it (802.11-style retry, observed via the simulator's omniscient
	// channel state rather than explicit ACK frames). Zero means 4; −1
	// disables ARQ.
	LinkRetries int
}

func (c Config) bitRate() float64 {
	if c.BitRate <= 0 {
		return 6e6
	}
	return c.BitRate
}

func (c Config) maxBackoff() float64 {
	if c.MaxBackoff <= 0 {
		return 2e-3
	}
	return c.MaxBackoff
}

func (c Config) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 7
	}
	return c.MaxRetries
}

func (c Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 64
	}
	return c.QueueCap
}

func (c Config) linkRetries() int {
	if c.LinkRetries < 0 {
		return 0
	}
	if c.LinkRetries == 0 {
		return 4
	}
	return c.LinkRetries
}

// txRec is one in-flight reception of the sender's current frame, in
// candidate (neighborhood) order. decoded carries the serial RNG lane's
// channel verdict; collAtArr records whether anything was already on the
// air at this receiver when the frame arrived. Plain values in a buffer
// the frame holds while it is on the air (Layer.recFree) — nothing is
// pointer-chased per frame.
type txRec struct {
	rx        int32
	decoded   bool // channel draw said the frame is decodable
	collAtArr bool // receiver was mid-reception when this frame arrived
}

// frameDeque is a ring-buffer queue of frames with O(1) push-front, so ARQ
// retransmissions cut the line without reallocating the queue. Indices wrap
// with a mask, not a division per frame: grow is the only place the capacity
// changes and it only ever produces 8·2ᵏ.
type frameDeque struct {
	buf  []Frame
	head int
	n    int
}

func (d *frameDeque) len() int { return d.n }

// at returns the i-th queued frame, counted from the front.
func (d *frameDeque) at(i int) *Frame { return &d.buf[(d.head+i)&(len(d.buf)-1)] }

func (d *frameDeque) grow() {
	newCap := 2 * len(d.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]Frame, newCap)
	for i := 0; i < d.n; i++ {
		nb[i] = *d.at(i)
	}
	d.buf = nb
	d.head = 0
}

func (d *frameDeque) pushBack(f Frame) {
	if d.n == len(d.buf) {
		d.grow()
	}
	*d.at(d.n) = f
	d.n++
}

func (d *frameDeque) pushFront(f Frame) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = f
	d.n++
}

func (d *frameDeque) popFront() Frame {
	f := d.buf[d.head]
	d.buf[d.head] = Frame{} // drop payload reference
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return f
}

// arrivals is one node's receiver-side arrival history — the O(1)
// carrier-sense state. maxEnd is the latest airtime end over every
// reception that ever arrived here (an unresolved reception exists iff
// maxEnd > now, since resolution fires exactly at the end instant).
// (t1, c1) is the latest distinct arrival instant and how many receptions
// arrived at it; (t0, c0) the previous distinct instant. Two suffice:
// collision queries always run at a resolving frame's end e = now, so the
// only arrivals that matter are the latest one strictly before e — which
// is t1, or t0 when t1 == e. c1 is zero exactly until the first arrival.
type arrivals struct {
	maxEnd float64
	t1, t0 float64
	c1, c0 int32
}

// nodeState is the per-node sender-side MAC state. It lives in a chunk
// (Layer.spare) that never moves, so a *nodeState stays valid however the
// layer's per-node slices grow.
type nodeState struct {
	queue   frameDeque
	sending bool
	txUntil float64 // sender busy until (own transmission)
	retries int

	// in-flight transmission state; a node transmits one frame at a time
	// (sending serialises), so it lives here instead of in a closure.
	txFrame      Frame
	txStart      float64 // arrival instant of the in-flight frame
	txRecs       []txRec // this frame's receptions, in candidate order; nil off the air
	txUnicastIdx int     // index into txRecs of the addressed receiver, or -1
	txUnicastOK  bool    // outcome copied at reception resolution

	// first is the queue's first ring buffer: most senders never hold more
	// than 8 frames, and those that do grow out of it by doubling.
	first [8]Frame
}

// Sender states are carved from chunks that double from minStateChunk to
// maxStateChunk: a 60-vehicle world takes three small ones, a 5,000-vehicle
// highway one allocation per 256 senders.
const (
	minStateChunk = 16
	maxStateChunk = 256
)

// Layer is the shared MAC instance. All nodes transmit through it; it owns
// the collision bookkeeping.
type Layer struct {
	eng     *sim.Engine
	radio   *radio.Cache
	cfg     Config
	rng     *rand.Rand
	col     *metrics.Collector
	deliver func(to int32, f Frame)
	fail    func(from int32, f Frame)
	done    func(f Frame)
	// nodes and arr are dense, keyed by node id, and always the same
	// length (cover is the one place they grow). A nodes entry stays nil
	// until the node sends or is flushed; a node that only ever receives
	// touches arr alone.
	nodes []*nodeState
	arr   []arrivals
	// spare is the unused tail of the newest sender-state chunk and carved
	// the number of states taken from chunks so far. A chunk is never
	// moved or reused, because the MAC holds a sender's state across calls
	// that can grow nodes: transmit covers its receivers, and finishTx's
	// deliver upcall may Send from a node the MAC has never seen.
	spare  []nodeState
	carved int
	// recFree holds the reception-record buffers of frames no longer on
	// the air: transmit takes one and finishTx gives it back, so there are
	// only ever as many as frames were on the air at once.
	recFree [][]txRec
	// attemptH and finishTxH are attempt and finishTx as engine handlers,
	// scheduled with the node ID.
	attemptH, finishTxH sim.Handler
	// linkFault, when set, returns an extra loss probability the fault
	// plane imposes on the (from, to) link right now: 0 is a clean link,
	// ≥1 severs it outright, anything between draws one extra uniform.
	linkFault func(from, to int32) float64
}

// NewLayer wires the MAC to the engine, the shared radio link cache
// (which carries the channel model and spatial index), and the metrics
// collector. deliver is the upcall invoked for every successfully received
// frame; fail is invoked at the sender when a unicast frame is dropped
// without the addressed receiver decoding it — ARQ exhaustion or a
// busy-medium (congestion) drop, the 802.11 "transmission failure"
// indication upper layers key link-break detection on. fail may be nil.
func NewLayer(eng *sim.Engine, rc *radio.Cache, cfg Config, col *metrics.Collector, deliver func(to int32, f Frame), fail func(from int32, f Frame)) *Layer {
	l := &Layer{
		eng: eng, radio: rc, cfg: cfg,
		rng: eng.Rand(), col: col, deliver: deliver, fail: fail,
	}
	l.attemptH = eng.Handle(l.attempt)
	l.finishTxH = eng.Handle(l.finishTx)
	return l
}

// SetLinkFault installs the fault plane's per-link loss hook. The RNG
// draw-order contract: for each candidate receiver, the fault draw (one
// uniform, only when the returned probability is strictly inside (0,1))
// happens immediately after the channel's Decodable draw, in neighborhood
// order. A probability ≥1 severs the link with no draw at all, so a hard
// partition perturbs no stream. fn must be nil or allocation-free; it runs
// on the per-frame hot path.
func (l *Layer) SetLinkFault(fn func(from, to int32) float64) { l.linkFault = fn }

// Flush discards every frame queued at id without failure upcalls or loss
// accounting, and disarms unicast ARQ for any transmission currently on
// the air. The fault plane calls it when a node crashes: a dead radio
// neither retries nor reports link breaks, but receptions already in
// flight still resolve at their airtime end (the energy is on the air
// whether or not the sender survives).
func (l *Layer) Flush(id int32) {
	st := l.state(id)
	for st.queue.len() > 0 {
		l.frameDone(st.queue.popFront())
	}
	st.retries = 0
	// Pretend the in-flight unicast (if any) succeeded: finishTx then
	// neither re-queues it nor raises the fail upcall, and the record
	// index is cleared so the resolve loop can't write the outcome back.
	st.txUnicastIdx = -1
	st.txUnicastOK = true
}

// OnFrameDone registers a hook invoked exactly once per accepted frame when
// it permanently leaves the MAC: after the transmission (and any ARQ
// retries) completed, or when the frame was dropped on queue overflow,
// congestion, or ARQ exhaustion. The network stack uses it to recycle
// pooled frame payloads; by the time it fires, every receiver upcall for
// the frame has already run.
func (l *Layer) OnFrameDone(fn func(f Frame)) { l.done = fn }

func (l *Layer) frameDone(f Frame) {
	if l.done != nil {
		l.done(f)
	}
}

// cover extends the per-node slices to hold id. Node IDs are dense from 0.
func (l *Layer) cover(id int32) {
	for int(id) >= len(l.nodes) {
		l.nodes = append(l.nodes, nil)
		l.arr = append(l.arr, arrivals{})
	}
}

// state returns the per-node sender state, carving it from the current
// chunk on first use.
func (l *Layer) state(id int32) *nodeState {
	l.cover(id)
	st := l.nodes[id]
	if st == nil {
		if len(l.spare) == 0 {
			l.spare = make([]nodeState, min(max(l.carved, minStateChunk), maxStateChunk))
		}
		st = &l.spare[0]
		l.spare = l.spare[1:]
		l.carved++
		st.txUnicastIdx = -1
		st.queue.buf = st.first[:]
		l.nodes[id] = st
	}
	return st
}

// Send enqueues a frame for transmission from frame.From. Frames beyond the
// queue cap are dropped (and counted as channel loss).
func (l *Layer) Send(f Frame) {
	st := l.state(f.From)
	if st.queue.len() >= l.cfg.queueCap() {
		l.col.MACChannelLoss++
		l.frameDone(f)
		return
	}
	st.queue.pushBack(f)
	if !st.sending {
		st.sending = true
		l.scheduleAttempt(f.From)
	}
}

// scheduleAttempt arms node id's backoff timer for its head-of-queue frame.
func (l *Layer) scheduleAttempt(id int32) {
	backoff := l.rng.Float64() * l.cfg.maxBackoff()
	l.eng.AfterCall(backoff, l.attemptH, id)
}

// attempt transmits the head-of-queue frame if the medium is idle at the
// sender, otherwise defers.
func (l *Layer) attempt(id int32) {
	st := l.state(id)
	if st.queue.len() == 0 {
		st.sending = false
		return
	}
	if l.mediumBusy(id, st) {
		st.retries++
		if st.retries > l.cfg.maxRetries() {
			// give up on this frame; unicast drops surface to the router
			// exactly like ARQ exhaustion, so congestion-dropped frames
			// still trigger link-failure handling
			drop := st.queue.popFront()
			st.retries = 0
			l.col.MACChannelLoss++
			if drop.To != Broadcast && l.fail != nil {
				l.fail(id, drop)
			}
			l.frameDone(drop)
			if st.queue.len() == 0 {
				st.sending = false
				return
			}
		}
		l.scheduleAttempt(id)
		return
	}
	st.retries = 0
	l.transmit(id, st, st.queue.popFront())
}

// mediumBusy reports whether the node senses ongoing traffic: its own
// transmission or any audible reception. Airtimes ending at exactly now
// do not count as busy — their frames resolve at this same instant. A
// reception is unresolved iff its end lies in the future, so the whole
// carrier-sense question collapses to one comparison against the
// arrival history's high-water end.
func (l *Layer) mediumBusy(id int32, st *nodeState) bool {
	now := l.eng.Now()
	return st.txUntil > now || l.arr[id].maxEnd > now
}

// transmit puts the frame on the air: for every candidate receiver in the
// sender's cached neighborhood the frame becomes an in-flight reception
// record; when the airtime ends, one event at the sender resolves them
// all.
//
// The per-frame cost is one cached-slice walk: the radio.Cache already
// holds the receiver IDs and distances for the current mobility epoch, so
// no grid scan or position lookup runs here, and the channel's decision at
// a cached distance is a comparison (UnitDisk) or a table lookup and one
// uniform (Shadowing, which computes its Log10 → Erfc receipt probability
// only for a draw that lands inside the bucket's bracket).
//
// Every stochastic draw — channel decodability, then the optional
// fault-plane loss — is made in neighborhood order, identical to the order
// the uncached grid scan produced, which keeps every RNG stream
// byte-identical. Each receiver's arrival history is updated as its record
// is written: collAtArr is whether anything was still on the air when this
// frame arrived (maxEnd beyond now, recorded before folding in our own
// end), and the (t1,c1)/(t0,c0) pair shifts exactly when a new distinct
// arrival instant appears.
func (l *Layer) transmit(from int32, st *nodeState, f Frame) {
	now := l.eng.Now()
	airtime := float64(f.Size*8) / l.cfg.bitRate()
	end := now + airtime
	st.txUntil = end
	st.txFrame = f
	st.txStart = now
	st.txUnicastIdx = -1
	st.txUnicastOK = false
	l.col.MACTransmits++

	links := l.radio.Links(from)
	var recs []txRec
	if k := len(l.recFree); k > 0 {
		recs = l.recFree[k-1]
		l.recFree = l.recFree[:k-1]
	}
	// grown by append's rule, not to the exact size: an exact size is
	// reallocated each time a neighbourhood outgrows the buffer's largest
	// one so far by even one receiver
	recs = slices.Grow(recs, len(links))[:len(links)]
	st.txRecs = recs
	for i, lk := range links {
		decoded := l.radio.Decodable(lk, l.rng)
		if l.linkFault != nil {
			// Fault losses stack after the channel draw. Only a partial
			// loss consumes a uniform; severed links (p≥1) draw nothing,
			// keeping fault-free streams byte-identical.
			if p := l.linkFault(from, lk.To); p > 0 {
				if p >= 1 {
					decoded = false
				} else if l.rng.Float64() < p {
					decoded = false
				}
			}
		}
		if f.To == lk.To {
			st.txUnicastIdx = i
		}
		l.cover(lk.To)
		rx := &l.arr[lk.To]
		recs[i] = txRec{rx: lk.To, decoded: decoded, collAtArr: rx.maxEnd > now}
		if rx.maxEnd < end {
			rx.maxEnd = end
		}
		if rx.t1 == now {
			rx.c1++
		} else {
			rx.t0, rx.c0 = rx.t1, rx.c1
			rx.t1, rx.c1 = now, 1
		}
	}
	// One event resolves the whole frame: all its receptions end at the
	// same instant, and the engine fires same-time events in scheduling
	// order, so the old one-event-per-receiver block [rx1..rxK, tx] always
	// ran contiguously anyway — collapsing it into a single event preserves
	// the exact upcall order while cutting K event-queue operations per
	// frame.
	l.eng.AfterCall(airtime, l.finishTxH, from)
}

// finishTx runs at the sender when its transmission's airtime ends:
// resolve every reception in creation order, then unicast ARQ, then start
// the next queued frame.
//
// A reception that arrived at s and ends now is collided iff something
// was on the air at s (collAtArr) or any arrival landed in [s, now) — at
// exactly s it must be a second one (multiplicity > 1: the record's own
// arrival is counted too), and arrivals at exactly now never overlap.
// The receiver's history gives the latest arrival before now directly:
// t1, unless t1 == now (same-instant arrivals from frames sent earlier
// this instant), in which case t0 — which can never predate s, because s
// itself is a distinct arrival instant at this receiver. Arrival
// histories only change at transmit events and none can run mid-resolve
// (Send only arms timers), so the verdicts are fixed before the first
// upcall; computing them up front and then delivering in creation order
// reproduces the interleaved resolve loop exactly.
func (l *Layer) finishTx(from int32) {
	st := l.state(from)
	f := st.txFrame
	st.txFrame = Frame{} // drop payload reference
	now := l.eng.Now()
	start := st.txStart
	for i, tr := range st.txRecs {
		rx := &l.arr[tr.rx]
		t, c := rx.t1, rx.c1
		if t == now {
			t, c = rx.t0, rx.c0
		}
		collided := tr.collAtArr || t > start || (t == start && c > 1)
		switch {
		case collided && tr.decoded:
			l.col.MACCollisions++
		case !tr.decoded:
			l.col.MACChannelLoss++
		default:
			l.col.MACDelivered++
			l.deliver(tr.rx, f)
		}
		if i == st.txUnicastIdx {
			st.txUnicastOK = tr.decoded && !collided
			st.txUnicastIdx = -1
		}
	}
	if cap(st.txRecs) > 0 {
		l.recFree = append(l.recFree, st.txRecs[:0])
	}
	st.txRecs = nil
	if f.To != Broadcast && !st.txUnicastOK {
		if f.attempts < l.cfg.linkRetries() {
			retry := f
			retry.attempts++
			// retransmissions cut the line: push to the queue front
			st.queue.pushFront(retry)
		} else {
			l.col.MACChannelLoss++
			if l.fail != nil {
				l.fail(from, f)
			}
			l.frameDone(f)
		}
	} else {
		l.frameDone(f)
	}
	if st.queue.len() == 0 {
		st.sending = false
		return
	}
	l.scheduleAttempt(from)
}

// DigestInto folds the MAC's checkpoint-relevant state into d: for every
// node in ID order, the transmit queue (frame headers — payloads are
// process-local pointers re-derived on restore), backoff/ARQ counters,
// the carrier-sense arrival history, and the in-flight frame's reception
// records in candidate order — all of it a deterministic function of the
// event history. A node is present once it has sent, been flushed or been a
// candidate receiver; one that only received digests as idle sender state
// around its arrival history.
func (l *Layer) DigestInto(d *digest.Writer) {
	digestFrame := func(f *Frame) {
		d.U32(uint32(f.From))
		d.U32(uint32(f.To))
		d.Int(f.Size)
		d.Int(f.attempts)
	}
	idle := nodeState{txUnicastIdx: -1} // what state() would have created
	d.Int(len(l.nodes))
	for id, st := range l.nodes {
		arr := &l.arr[id]
		if st == nil {
			if arr.c1 == 0 {
				d.Bool(false)
				continue
			}
			st = &idle
		}
		d.Bool(true)
		d.Int(id)
		d.Int(st.queue.len())
		for i := 0; i < st.queue.n; i++ {
			digestFrame(st.queue.at(i))
		}
		d.Bool(st.sending)
		d.F64(st.txUntil)
		d.Int(st.retries)
		d.F64(arr.maxEnd)
		d.F64(arr.t1)
		d.U32(uint32(arr.c1))
		d.F64(arr.t0)
		d.U32(uint32(arr.c0))
		digestFrame(&st.txFrame)
		d.F64(st.txStart)
		d.Int(len(st.txRecs))
		for _, tr := range st.txRecs {
			d.U32(uint32(tr.rx))
			d.Bool(tr.decoded)
			d.Bool(tr.collAtArr)
		}
		d.Int(st.txUnicastIdx)
		d.Bool(st.txUnicastOK)
	}
}
