package routing

import "github.com/vanetlab/relroute/internal/netstack"

// Request is the RREQ of a selective discovery: the discovery it belongs
// to and the path it has travelled so far, folded into P hop by hop. Each
// hop sends a record of its own, taken from its router's free list, and
// the record goes back there once its frame is done.
type Request[P any] struct {
	Origin netstack.NodeID
	ReqID  uint64
	Target netstack.NodeID
	Path   P
	owner  *Selective[P]
}

// Recycle implements netstack.Recycler: the request's frame is done, so
// every receiver has read it.
func (r *Request[P]) Recycle() { r.owner.free = append(r.owner.free, r) }

// Rule is what a selective protocol supplies, once, as a package-level
// value of plain functions and constants.
type Rule[P any] struct {
	// Timeout is the discovery timeout and Window the target's selection
	// window, in seconds; RequestSize and ReplySize are the RREQ's and the
	// RREP's bytes.
	Timeout, Window        float64
	RequestSize, ReplySize int
	// Start is the path a request leaves its origin with.
	Start P
	// Fold steps a request copy over the link it came by, from from to
	// this node, before anything else reads or writes this node's table
	// for it. It returns the path the copy carries on, the metric its
	// reverse route and a reply carry, the score the target selects on (a
	// negative one never wins), whether a relay passes the copy on, and
	// how many seconds the relay waits before it does (0: at once).
	Fold func(api *netstack.API, from netstack.NodeID, path P) (next P, metric, score float64, relay bool, delay float64)
	// Route builds the table entry to dst through via that a request copy
	// or a reply installs.
	Route func(api *netstack.API, dst, via netstack.NodeID, hops int, metric float64) Route
	// Renew runs at the origin once a reply from target has installed its
	// route, with the metric the target selected on.
	Renew func(d *Discovery, target netstack.NodeID, metric float64)
}

// Selective is the on-demand core of the protocols that compare paths
// (PBR, Taleb, NiuDe): an OnDemand whose request folds a link metric at
// every hop and whose target answers the best copy its Selection collects.
// A protocol embeds it and binds its Rule in Init.
type Selective[P any] struct {
	OnDemand
	rule *Rule[P]
	sel  Selection[candidate]
	free []*Request[P] // request records whose frames are done
}

// Init binds the protocol's rule.
func (s *Selective[P]) Init(rule *Rule[P]) {
	s.rule = rule
	s.OnDemand.Init(rule.Timeout, s)
	s.sel = NewSelection[candidate](rule.Window, s)
}

func (s *Selective[P]) NewRequest(dst netstack.NodeID, reqID uint64) *netstack.Packet {
	return NewPacket(s.API, netstack.KindRREQ, netstack.Broadcast, s.rule.RequestSize,
		s.request(Request[P]{Origin: s.API.Self(), ReqID: reqID, Target: dst, Path: s.rule.Start}))
}

// request is a record of this router's holding req: the last one whose
// frame is done, or a new one.
func (s *Selective[P]) request(req Request[P]) *Request[P] {
	var r *Request[P]
	if k := len(s.free); k > 0 {
		r, s.free = s.free[k-1], s.free[:k-1]
	} else {
		r = new(Request[P])
	}
	*r = req
	r.owner = s
	return r
}

// HandlePacket implements netstack.Router.
func (s *Selective[P]) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindRREQ:
		s.handleRequest(pkt)
	case netstack.KindRREP:
		if target, metric, ok := s.HandleReply(pkt, s.rule.Route); ok {
			s.rule.Renew(&s.Discovery, target, metric)
		}
	case netstack.KindData:
		ForwardData(s.API, &s.table, pkt)
	}
}

// handleRequest folds the link a request copy came by and merges the
// reverse route. The target offers every copy to its selection; a relay
// passes on the first copy of a discovery, if the rule lets it through.
// The copy is recorded as seen before that gate, so one the gate drops
// still makes later copies of its discovery duplicates. The copy's record
// is its sender's, read here and never kept: a relay sends a record of its
// own, taken once the request has TTL left to spend.
func (s *Selective[P]) handleRequest(pkt *netstack.Packet) {
	req := *pkt.Payload.(*Request[P])
	if req.Origin == s.API.Self() {
		s.API.Release(pkt)
		return
	}
	path, metric, score, relay, delay := s.rule.Fold(s.API, pkt.From, req.Path)
	s.MergeReverse(s.rule.Route(s.API, req.Origin, pkt.From, pkt.Hops, metric))
	if req.Target == s.API.Self() {
		s.sel.Offer(s.API, DupKey{Origin: req.Origin, Seq: req.ReqID}, score,
			candidate{From: pkt.From, Hops: pkt.Hops, Metric: metric})
		s.API.Release(pkt)
		return
	}
	if s.Duplicate(req.Origin, req.ReqID) || !relay {
		s.API.Release(pkt)
		return
	}
	if !s.spend(pkt) {
		return
	}
	req.Path = path
	pkt.Payload = s.request(req)
	s.broadcast(pkt, delay > 0, delay)
}

// Answer installs the route back through the best candidate and replies
// along it.
func (s *Selective[P]) Answer(origin netstack.NodeID, c candidate) {
	s.Table().Upsert(s.rule.Route(s.API, origin, c.From, c.Hops, c.Metric))
	s.Reply(c.From, origin, s.rule.ReplySize, c.Metric)
}

// candidate is a path offered to a Selective destination: the previous
// hop the RREQ copy arrived through, its hop count, and the path metric
// the protocol carries back (a lifetime, a reliability).
type candidate struct {
	From   netstack.NodeID
	Hops   int
	Metric float64
}

// Selection is the destination side of a discovery that compares paths:
// the first request copy of a discovery opens a window, every copy that
// arrives inside it is scored, and when it closes the best is answered.
type Selection[T any] struct {
	window float64
	answer Answerer[T]
	open   map[DupKey]*bid[T] // made at the first Offer
}

// Answerer takes the winner of a Selection's window: the router.
type Answerer[T any] interface {
	Answer(origin netstack.NodeID, best T)
}

type bid[T any] struct {
	score float64
	val   T
}

// NewSelection returns a Selection that collects for window seconds and
// hands the winner to answer.
func NewSelection[T any](window float64, answer Answerer[T]) Selection[T] {
	return Selection[T]{window: window, answer: answer}
}

// Offer enters val, scored score, for the discovery key (origin, request).
// A negative score opens the window but can never win it; a window that
// closes on nothing else answers nobody.
func (s *Selection[T]) Offer(api *netstack.API, key DupKey, score float64, val T) {
	b, ok := s.open[key]
	if !ok {
		if s.open == nil {
			s.open = make(map[DupKey]*bid[T])
		}
		b = &bid[T]{score: -1}
		s.open[key] = b
		api.After(s.window, func() {
			delete(s.open, key)
			if b.score >= 0 {
				s.answer.Answer(key.Origin, b.val)
			}
		})
	}
	if score > b.score {
		b.score, b.val = score, val
	}
}
