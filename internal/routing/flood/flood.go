// Package flood implements the survey's connectivity-based baseline
// (Sec. III): pure flooding, in which every node rebroadcasts each data
// packet it sees for the first time. It is "easy to implement" and "a good
// solution for traffic notification applications", but exhibits the
// broadcast storm problem as density grows — the behaviour experiment E-A1
// measures. The package also provides Biswas's acknowledged variant, which
// treats overhearing its own rebroadcast from another node as an implicit
// acknowledgment and retransmits until acknowledged.
package flood

import (
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
	"github.com/vanetlab/relroute/internal/sim"
)

// Router is the pure flooding router: routing.Flooder with no hook.
// Needing no neighbor state is exactly why Table I calls it "simple".
type Router struct{ routing.Flooder }

// New returns a flooding router factory.
func New() netstack.RouterFactory {
	return func() netstack.Router {
		r := &Router{}
		r.Init(r)
		return r
	}
}

// Biswas is the acknowledged flooding router of Biswas et al. [9]: after
// rebroadcasting, a node listens for the same packet from another node; if
// no copy is overheard within ackTimeout it rebroadcasts again, up to
// maxRetries times. ("If the vehicle does not receive the acknowledgment,
// it will periodically rebroadcast the packet until the acknowledgment is
// received.")
type Biswas struct {
	routing.Flooder
	retry map[uint64]pending // packet UID → pending retransmission; made at the first send
	// armed is every retry timer not yet fired, in the order it was armed
	// (from head on), and fire the one func they all run, made at the
	// first send. Every timer waits ackTimeout, so they fire in that
	// order; an entry whose send was acked since is skipped.
	armed []armed
	head  int
	fire  func()
}

// pending is a rebroadcast waiting for its implicit ack: the retry timer,
// the copy of the packet the retries send copies of, and how many retries
// have gone out.
type pending struct {
	timer sim.TimerID
	kept  *netstack.Packet
	tries int
}

// armed is one retry timer: the send it retries and the timer.
type armed struct {
	uid   uint64
	timer sim.TimerID
}

const (
	ackTimeout = 0.5 // seconds a rebroadcast waits for its implicit ack
	maxRetries = 3
)

// NewBiswas returns a factory for the acknowledged flooding router.
func NewBiswas() netstack.RouterFactory {
	return func() netstack.Router {
		b := &Biswas{}
		b.Init(b)
		return b
	}
}

// HandlePacket implements netstack.Router: any overheard copy, duplicate
// or not, acknowledges our pending rebroadcast, whose kept copy goes back
// to the pool; the rest is the flood's.
func (b *Biswas) HandlePacket(pkt *netstack.Packet) {
	if p, ok := b.retry[pkt.UID]; ok {
		b.API.Cancel(p.timer)
		b.API.Release(p.kept)
		delete(b.retry, pkt.UID)
	}
	b.Flooder.HandlePacket(pkt)
}

// Outbound transmits and arms the implicit-ack retry timer. The retry
// keeps a pooled copy of the packet and sends a fresh copy of that each
// time; the kept copy goes back to the pool at the ack, or once the retries
// run out. A warm send allocates nothing: every retry timer runs the one
// stored func, and the retry state lives in the map entry, keyed by the
// UID alone, which never comes back here while it is pending: the
// flooder's duplicate cache holds a UID far longer than its retries last.
func (b *Biswas) Outbound(pkt *netstack.Packet, _ bool) bool {
	if b.retry == nil {
		b.retry = make(map[uint64]pending)
		b.fire = b.resend
	}
	kept := b.API.NewPacket()
	*kept = *pkt
	b.API.Send(netstack.Broadcast, pkt)
	b.retry[kept.UID] = pending{timer: b.arm(kept.UID), kept: kept}
	return true
}

// arm starts a retry timer for uid and queues it behind every timer armed
// before it, reusing the queue's array once the head has moved on.
func (b *Biswas) arm(uid uint64) sim.TimerID {
	id := b.API.After(ackTimeout, b.fire)
	if b.head > 0 && len(b.armed) == cap(b.armed) {
		n := copy(b.armed, b.armed[b.head:])
		b.armed, b.head = b.armed[:n], 0
	}
	b.armed = append(b.armed, armed{uid: uid, timer: id})
	return id
}

// resend fires when the oldest live retry timer has gone ackTimeout
// unacknowledged: the queue's head, once the entries of sends acked since
// (no map entry, or one with another timer) are skipped. It sends another
// copy and re-arms, or, once the retries are spent, gives the kept copy
// back.
func (b *Biswas) resend() {
	var a armed
	var p pending
	for {
		a = b.armed[b.head]
		b.head++
		var ok bool
		if p, ok = b.retry[a.uid]; ok && p.timer == a.timer {
			break
		}
	}
	if b.head == len(b.armed) {
		b.armed, b.head = b.armed[:0], 0
	}
	if p.tries >= maxRetries {
		delete(b.retry, a.uid)
		b.API.Release(p.kept)
		return
	}
	p.tries++
	cp := b.API.NewPacket()
	*cp = *p.kept
	b.API.Send(netstack.Broadcast, cp)
	p.timer = b.arm(a.uid)
	b.retry[a.uid] = p
}
