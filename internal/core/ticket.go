package core

import (
	"cmp"
	"math"
	"slices"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/routing"
)

// TicketOption configures the ticket router factory.
type TicketOption func(*TicketRouter)

// WithTickets sets the probe ticket budget L (default 3). One ticket
// explores one candidate path; the budget is split divide-and-conquer at
// every hop.
func WithTickets(l int) TicketOption {
	return func(r *TicketRouter) { r.tickets = l }
}

// WithMetric selects the stability metric (default MetricMeanDuration —
// the TBP-SS configuration).
func WithMetric(m Metric) TicketOption {
	return func(r *TicketRouter) { r.metric = m }
}

// WithScorer scores links with a function of the router's metric, which
// makes a protocol of its own (the hybrid probability+mobility router the
// paper's conclusion proposes is the one user; tests use it to set link
// scores). f gets the metric's value for the link, read through the
// router's memo, and must return seconds of predicted usable lifetime; the
// threshold and path-min composition still apply. f must be non-decreasing
// in that value: the router ranks links by f over the metric's closed-form
// bound, which may be +Inf, and integrates only those that can still win.
func WithScorer(f func(api *netstack.API, nb netstack.Neighbor, stability float64) float64) TicketOption {
	return func(r *TicketRouter) { r.scorer = f }
}

const (
	// stabilityThreshold is the minimum acceptable link stability in
	// seconds; probes never traverse weaker links — the "SS" stability
	// constraint.
	stabilityThreshold = 3.0
	// selectionWindow is how long, in seconds, the destination collects
	// probes before answering with the best path.
	selectionWindow = 0.3
	// rebuildMargin is how long before the predicted path expiry, in
	// seconds, the source re-probes.
	rebuildMargin = 1.0
)

// TicketRouter is the Yan/TBP-SS probability-model-based router: selective
// ticket probing on a link-stability metric, source-routed data, and
// stability-driven preemptive maintenance.
//
// A packet has one holder at a time: every packet whose journey ends here
// goes back to the stack's pool — a probe absorbed at its target, out of
// hops or without a candidate, a reply at its origin, a break notice, and
// the control copy a failed send hands back. A relay sends the probe it
// received on to its last funded candidate. The one packet kept is the data
// copy a failed first hop hands the origin, which waits in the discovery
// queue for the next path.
type TicketRouter struct {
	// the source-side active paths: dst → self ... dst
	routing.SourceRouted
	tickets int
	metric  Metric
	scorer  func(api *netstack.API, nb netstack.Neighbor, stability float64) float64

	// destination-side probe collection: the most stable path wins
	sel routing.Selection[bestPath]

	// memo holds what the probability metrics returned while this node was
	// at memoPos moving at memoVel, one entry per neighbor scored. It is
	// emptied, not freed, when the node moves, so it holds one entry per
	// neighbor at most, and it is made at its first entry with room for
	// every neighbor and one more. A cache only: no Summary, digest or
	// checkpoint sees it.
	memo             []stabilityMemo
	memoPos, memoVel geom.Vec2
}

// stabilityMemo is one remembered link stability. A neighbor's beaconed
// position and velocity — with this node's own, all a probability metric
// reads — change only with a beacon, and every beacon advances Beacons and
// LastSeen (a link forgotten and heard again restarts Beacons, at a later
// LastSeen), so the three key fields stand for them in 24 bytes instead
// of 40.
type stabilityMemo struct {
	id       netstack.NodeID
	beacons  int32
	lastSeen float64
	val      float64
}

type bestPath struct {
	hops      []netstack.NodeID // origin ... target inclusive
	stability float64
}

// probe is the ticket-carrying control payload: one record per ticket
// share, its path stored inline. A unicast payload has one holder at a
// time, so a hop appends itself to the record it was handed and sends the
// record on; only the extra shares of a ticket split are copies.
type probe struct {
	Origin    netstack.NodeID
	ReqID     uint64
	Target    netstack.NodeID
	Tickets   int
	Path      []netstack.NodeID // origin ... current holder inclusive, in buf
	Stability float64           // min link stability along Path
	// buf holds the longest path a probe's TTL lets it travel: the origin
	// and one node per hop.
	buf [routing.DefaultTTL + 2]netstack.NodeID
}

// reply returns the selected path.
type reply struct {
	Origin    netstack.NodeID
	Target    netstack.NodeID
	Path      []netstack.NodeID // origin ... target inclusive
	Stability float64
}

// NewTicketRouter returns a TBP-SS router factory.
func NewTicketRouter(opts ...TicketOption) netstack.RouterFactory {
	return func() netstack.Router {
		r := &TicketRouter{tickets: 3, metric: MetricMeanDuration}
		for _, o := range opts {
			o(r)
		}
		r.Init(1.0, r)
		r.sel = routing.NewSelection[bestPath](selectionWindow, r)
		return r
	}
}

// Request performs the source's ticket split: rank neighbors by link
// stability (filtered by the threshold and, when the destination position
// is known, by forward progress), then distribute the L tickets over the
// best L candidates. A round starts while a path is held only when a
// renewal starts it, and a renewal probes anew, so the old path is dropped.
func (r *TicketRouter) Request(dst netstack.NodeID, reqID uint64) bool {
	r.Forget(dst)
	self := r.API.Self()
	var ranked [rankBuf]candidate
	cands := r.candidates(dst, []netstack.NodeID{self}, r.tickets, ranked[:0])
	if len(cands) == 0 {
		return false
	}
	for i, c := range cands {
		share := ticketShare(r.tickets, len(cands), i)
		if share == 0 {
			continue
		}
		pr := &probe{Origin: self, ReqID: reqID, Target: dst, Tickets: share, Stability: c.stability}
		pr.Path = append(pr.buf[:0], self)
		r.API.Send(c.id, routing.NewPacket(r.API, netstack.KindProbe, dst, 48+4*len(pr.Path), pr))
	}
	return true
}

type candidate struct {
	id        netstack.NodeID
	stability float64
	progress  float64
}

// rankBuf is the length of the array a caller of candidates ranks into:
// every neighbor a link-state read holds without growing, and an insert
// before the cut to k.
const rankBuf = routing.NeighborBuf + 1

// stability evaluates one reliability-plane link state with the
// configured metric, and the scorer over it if there is one.
func (r *TicketRouter) stability(ls netstack.LinkState) float64 {
	return r.score(ls, r.metricStability(ls))
}

// score is what the router ranks a link by when the metric reads s.
func (r *TicketRouter) score(ls netstack.LinkState, s float64) float64 {
	if r.scorer != nil {
		return r.scorer(r.API, ls, s)
	}
	return s
}

// metricStability evaluates the configured metric. The probability metrics
// are expected durations, each two Erfc and up to eight 17-node
// Gauss–Legendre panels, and probes arrive in bursts, so their results
// are remembered for as long as both ends of the link stay as they are
// (see stabilityMemo); the deterministic metric is a field of ls, so it
// does not go through the memo.
func (r *TicketRouter) metricStability(ls netstack.LinkState) float64 {
	if r.metric == MetricDeterministic {
		return linkStateStability(r.API, r.metric, ls)
	}
	m := r.memoEntry(ls.ID)
	if m.holds(ls) {
		return m.val
	}
	e := stabilityMemo{ls.ID, int32(ls.Beacons), ls.LastSeen, linkStateStability(r.API, r.metric, ls)}
	switch {
	case m != nil:
		*m = e
	case r.memo == nil:
		r.memo = append(make([]stabilityMemo, 0, r.API.NeighborCount()+1), e)
	default:
		r.memo = append(r.memo, e)
	}
	return e.val
}

// memoEntry returns the memo's entry for neighbor id, nil if it has none,
// after emptying the memo if this node has moved since it was filled.
func (r *TicketRouter) memoEntry(id netstack.NodeID) *stabilityMemo {
	if pos, vel := r.API.Pos(), r.API.Vel(); pos != r.memoPos || vel != r.memoVel {
		r.memo, r.memoPos, r.memoVel = r.memo[:0], pos, vel
	}
	for i := range r.memo {
		if r.memo[i].id == id {
			return &r.memo[i]
		}
	}
	return nil
}

// holds reports whether m remembers the link as ls describes it.
func (m *stabilityMemo) holds(ls netstack.LinkState) bool {
	return m != nil && m.beacons == int32(ls.Beacons) && m.lastSeen == ls.LastSeen
}

// stabilityBound is a number never below stability(ls), and whether it is
// stability(ls) itself: the score of the memo's value where it holds the
// link, else of the probability metrics' closed-form bound — a scorer is
// non-decreasing in the metric. The deterministic metric's bound is +Inf,
// so every link is scored.
func (r *TicketRouter) stabilityBound(ls netstack.LinkState) (bound float64, exact bool) {
	s := math.Inf(1)
	if r.metric != MetricDeterministic {
		if m := r.memoEntry(ls.ID); m.holds(ls) {
			s, exact = m.val, true
		} else {
			s = linkStateStabilityBound(r.API, r.metric, ls)
		}
	}
	return r.score(ls, s), exact
}

// bounded is a neighbor that passed candidates' free tests, with what its
// stability can at most be.
type bounded struct {
	idx      int // into the link states
	progress float64
	bound    float64
	exact    bool // the bound is the stability
}

// candidates returns the best k admissible next hops for a probe, at
// least one so that an empty list means there is none: live neighbors not
// on the path, stability ≥ threshold, ranked by stability, progress and
// ID. The tests run cheapest first — a neighbor the path or geography
// rules out is never scored, nor one whose stability bound is below the
// threshold — and the rest are scored best bound first until k are
// admitted and the next bound is below the k-th best stability: no
// neighbor left can then enter the top k. For the probability metrics
// that is an integral saved per neighbor skipped. The list is ranked into
// out, which needs room for k+1 (a rankBuf array on the caller's stack
// holds it); a shorter out grows by append.
func (r *TicketRouter) candidates(dst netstack.NodeID, path []netstack.NodeID, k int, out []candidate) []candidate {
	k = max(k, 1)
	dstPos, _, havePos := r.API.LookupPosition(dst)
	selfD := 0.0
	if havePos {
		selfD = r.API.Pos().Dist(dstPos)
	}
	var buf [routing.NeighborBuf]netstack.LinkState
	states := r.API.AppendLinkStates(buf[:0])
	var admitBuf [routing.NeighborBuf]bounded
	admissible := admitBuf[:0]
	for i := range states {
		nb := &states[i]
		if slices.Contains(path, nb.ID) {
			continue
		}
		prog := 0.0
		if havePos {
			prog = selfD - nb.Pos.Dist(dstPos)
			if nb.ID != dst && prog <= 0 {
				continue // require forward progress when geography is known
			}
		}
		b, exact := r.stabilityBound(*nb)
		if b < stabilityThreshold {
			continue
		}
		admissible = append(admissible, bounded{i, prog, b, exact})
	}
	// stable: equal bounds — every one, for the deterministic metric — score
	// in table order
	slices.SortStableFunc(admissible, func(a, b bounded) int { return cmp.Compare(b.bound, a.bound) })
	out = out[:0]
	for _, a := range admissible {
		if len(out) == k && a.bound < out[k-1].stability {
			break
		}
		nb := &states[a.idx]
		s := a.bound
		if !a.exact {
			s = r.stability(*nb)
		}
		if s < stabilityThreshold {
			continue
		}
		c := candidate{id: nb.ID, stability: s, progress: a.progress}
		i, _ := slices.BinarySearchFunc(out, c, rankCandidates)
		if i == k {
			continue // ranks below all k
		}
		if out = slices.Insert(out, i, c); len(out) > k {
			out = out[:k]
		}
	}
	return out
}

// rankCandidates is a strict total order, best first: IDs are unique.
func rankCandidates(a, b candidate) int {
	if a.stability != b.stability {
		return cmp.Compare(b.stability, a.stability)
	}
	if a.progress != b.progress {
		return cmp.Compare(b.progress, a.progress)
	}
	return cmp.Compare(a.id, b.id)
}

// ticketShare is the share of l tickets that the i-th of n ranked
// candidates gets: the best candidates get the ceiling share, every funded
// candidate gets at least one, and no more candidates are funded than
// tickets exist.
func ticketShare(l, n, i int) int {
	funded := min(l, n)
	if i >= funded {
		return 0
	}
	share := l / funded
	if i < l%funded {
		share++
	}
	return share
}

// HandlePacket implements netstack.Router.
func (r *TicketRouter) HandlePacket(pkt *netstack.Packet) {
	switch pkt.Kind {
	case netstack.KindProbe:
		r.handleProbe(pkt)
	case netstack.KindRREP:
		r.handleReply(pkt)
	case netstack.KindRERR:
		r.handleBreak(pkt)
	case netstack.KindData:
		routing.ForwardSourceRouted(r.API, pkt, r.reportBreak)
	}
}

// handleProbe takes a probe at a relay or its target. candidates skip every
// node on a probe's path, which its origin heads, so the origin gets none.
func (r *TicketRouter) handleProbe(pkt *netstack.Packet) {
	pr := pkt.Payload.(*probe)
	// Fold in the stability of the link just traversed, as measured at
	// the receiving end (the survey's probing is per-link, both ends see
	// the beacons).
	inStab := pr.Stability
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		inStab = routing.MinLifetime(inStab, r.stability(ls))
	}
	pr.Path = append(pr.Path, r.API.Self()) // the record is this node's alone
	if pr.Target == r.API.Self() {
		r.sel.Offer(r.API, routing.DupKey{Origin: pr.Origin, Seq: pr.ReqID}, inStab,
			bestPath{hops: pr.Path, stability: inStab})
		r.API.Release(pkt)
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		r.API.Release(pkt)
		return
	}
	var ranked [rankBuf]candidate
	cands := r.candidates(pr.Target, pr.Path, pr.Tickets, ranked[:0])
	// every funded candidate gets at least one ticket
	funded := cands[:min(pr.Tickets, len(cands))]
	if len(funded) == 0 {
		r.API.Release(pkt) // the ticket dies here without a candidate
		return
	}
	pkt.Size = 48 + 4*len(pr.Path)
	last := len(funded) - 1
	for i, c := range funded[:last] {
		// an extra share: a packet and a record of its own
		cp := new(probe)
		*cp = *pr
		cp.Path = append(cp.buf[:0], pr.Path...)
		cp.Tickets, cp.Stability = ticketShare(pr.Tickets, len(funded), i), routing.MinLifetime(inStab, c.stability)
		fwd := r.API.NewPacket()
		*fwd = *pkt
		fwd.Payload = cp
		r.API.Send(c.id, fwd)
	}
	pr.Tickets, pr.Stability = ticketShare(pr.Tickets, len(funded), last), routing.MinLifetime(inStab, funded[last].stability)
	r.API.Send(funded[last].id, pkt)
}

// Answer returns the best probed path to the origin. A probe's path holds
// its origin and its target, this node, so it has a hop back.
func (r *TicketRouter) Answer(origin netstack.NodeID, best bestPath) {
	path := best.hops
	r.API.Send(path[len(path)-2], routing.NewPacket(r.API, netstack.KindRREP, origin, 32+4*len(path),
		reply{Origin: origin, Target: r.API.Self(), Path: path, Stability: best.stability}))
}

func (r *TicketRouter) handleReply(pkt *netstack.Packet) {
	rep := pkt.Payload.(reply)
	if r.API.Self() == rep.Origin {
		stab := rep.Stability
		r.Learn(rep.Target, append([]netstack.NodeID(nil), rep.Path...))
		r.API.Metrics().OnPathLifetime(routing.CapLife(stab))
		r.Answered(rep.Target)
		// stability-driven preemptive rebuild
		r.RenewBefore(rep.Target, stab, rebuildMargin)
		r.API.Release(pkt)
		return
	}
	// a reply is unicast along its path, so this relay is on it
	routing.RelayBack(r.API, pkt, rep.Path, slices.Index(rep.Path, r.API.Self()))
}

// breakNotice reports a dead source route back to the origin.
type breakNotice struct {
	Origin netstack.NodeID
	Target netstack.NodeID
}

func (r *TicketRouter) handleBreak(pkt *netstack.Packet) {
	bn := pkt.Payload.(breakNotice)
	r.API.Release(pkt)
	if bn.Origin == r.API.Self() && r.Forget(bn.Target) {
		r.API.Metrics().RouteBreaks++
		r.Start(bn.Target)
	}
}

// reportBreak unicasts a break notice to the node before index selfIdx > 0
// on the source route. The receiver relays it no further, so it reaches
// the origin only from a break one hop away.
func (r *TicketRouter) reportBreak(hdr *routing.SourceRoute, selfIdx int) {
	path := hdr.Path
	origin, target := path[0], path[len(path)-1]
	r.API.Send(path[selfIdx-1], routing.NewPacket(r.API, netstack.KindRERR, origin, 24,
		breakNotice{Origin: origin, Target: target}))
}

// OnSendFailed implements netstack.Router: a probed path broke under data
// — blacklist, report upstream (or re-probe when we are the origin), and
// count the break.
func (r *TicketRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	hdr, ok := pkt.Payload.(*routing.SourceRoute)
	if !ok || pkt.Kind != netstack.KindData {
		r.API.Release(pkt)
		return
	}
	if r.API.Self() == hdr.Path[0] {
		// origin: rebuild and requeue this packet
		if r.Forget(pkt.Dst) {
			r.API.Metrics().RouteBreaks++
		}
		pkt.Payload = nil
		r.Queue(pkt)
		return
	}
	r.API.Metrics().RouteBreaks++
	// reportBreak wants this relay's index; the failed hop's sends the
	// notice to this node itself. Correcting it moves the protocol goldens
	// (ROADMAP 1(b)).
	r.reportBreak(hdr, slices.Index(hdr.Path, to))
	r.API.Drop(pkt)
}

// OnNeighborExpired implements netstack.Router: source-side paths whose
// first hop died are forgotten, each a route break. Data that waits for a
// destination always has a discovery in flight, so none is started here.
func (r *TicketRouter) OnNeighborExpired(id netstack.NodeID) {
	r.API.Metrics().RouteBreaks += r.ForgetLink(r.API.Self(), id)
}
