package core

import (
	"cmp"
	"math"
	"slices"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
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

// WithScorer replaces the link-stability estimator with a custom function,
// which makes a protocol of its own: name is what the router answers to
// and labels its packets with (the hybrid probability+mobility router the
// paper's conclusion proposes is the one user; tests use it to set link
// scores). The scorer must return seconds of predicted usable lifetime;
// the threshold and path-min composition still apply.
func WithScorer(name string, f func(api *netstack.API, nb netstack.Neighbor) float64) TicketOption {
	return func(r *TicketRouter) { r.name, r.scorer = name, f }
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
type TicketRouter struct {
	routing.Discovery
	tickets int
	metric  Metric
	name    string // of a WithScorer protocol; the metric names the others
	scorer  func(api *netstack.API, nb netstack.Neighbor) float64

	// source-side active paths: dst → source route + predicted stability
	paths map[netstack.NodeID]*activePath
	// destination-side probe collection: the most stable path wins
	sel routing.Selection[bestPath]

	// memo holds what the probability metrics returned while this node was
	// at memoPos moving at memoVel, one entry per neighbor scored; it grows
	// on the first probe a router scores for and is emptied, not freed,
	// when the node moves. A cache only: no Summary, digest or checkpoint
	// sees it.
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

type activePath struct {
	hops      []netstack.NodeID // self ... dst inclusive
	stability float64
	built     float64
}

type bestPath struct {
	hops      []netstack.NodeID // origin ... target inclusive
	stability float64
}

// probe is the ticket-carrying control payload.
type probe struct {
	Origin    netstack.NodeID
	ReqID     uint64
	Target    netstack.NodeID
	Tickets   int
	Path      []netstack.NodeID // origin ... current holder inclusive
	Stability float64           // min link stability along Path
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
		r := &TicketRouter{
			tickets: 3,
			metric:  MetricMeanDuration,
			paths:   make(map[netstack.NodeID]*activePath),
		}
		for _, o := range opts {
			o(r)
		}
		r.Init(r.Name(), 1.0, r.routed, r.forward, r.sendProbes)
		r.sel = routing.NewSelection(selectionWindow, r.answer)
		return r
	}
}

// Name implements netstack.Router.
func (r *TicketRouter) Name() string {
	switch {
	case r.name != "":
		return r.name
	case r.metric == MetricExpectedDuration:
		return "Yan-TBP"
	}
	return "TBP-SS"
}

func (r *TicketRouter) routed(dst netstack.NodeID) bool {
	ap, ok := r.paths[dst]
	return ok && len(ap.hops) >= 2
}

// forward stamps the active source route on a data packet and sends it.
func (r *TicketRouter) forward(pkt *netstack.Packet) {
	routing.SendSourceRouted(r.API, pkt, r.paths[pkt.Dst].hops)
}

// sendProbes performs the source's ticket split: rank neighbors by link
// stability (filtered by the threshold and, when the destination position
// is known, by forward progress), then distribute the L tickets over the
// best L candidates.
func (r *TicketRouter) sendProbes(dst netstack.NodeID, reqID uint64) bool {
	cands := r.candidates(dst, []netstack.NodeID{r.API.Self()}, r.tickets)
	if len(cands) == 0 {
		return false
	}
	split := splitTickets(r.tickets, len(cands))
	for i, c := range cands {
		if split[i] == 0 {
			continue
		}
		pl := probe{
			Origin: r.API.Self(), ReqID: reqID, Target: dst,
			Tickets:   split[i],
			Path:      []netstack.NodeID{r.API.Self()},
			Stability: c.stability,
		}
		r.API.Send(c.id, r.Control(netstack.KindProbe, dst, 48+4*len(pl.Path), pl))
	}
	return true
}

type candidate struct {
	id        netstack.NodeID
	stability float64
	progress  float64
}

// stability evaluates one reliability-plane link state with the
// configured metric or scorer. The probability metrics are 400-panel
// integrals and probes arrive in bursts, so their results are remembered
// for as long as both ends of the link stay as they are (see
// stabilityMemo); a scorer may read anything, and the deterministic metric
// is a field of ls, so neither goes through the memo.
func (r *TicketRouter) stability(ls netstack.LinkState) float64 {
	if r.scorer != nil {
		return r.scorer(r.API, ls)
	}
	if r.metric == MetricDeterministic {
		return linkStateStability(r.API, r.metric, ls)
	}
	m := r.memoEntry(ls.ID)
	if m.holds(ls) {
		return m.val
	}
	e := stabilityMemo{ls.ID, int32(ls.Beacons), ls.LastSeen, linkStateStability(r.API, r.metric, ls)}
	if m != nil {
		*m = e
	} else {
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
// stability(ls) itself: the memo's value where it holds the link, else the
// probability metrics' closed-form bound. A scorer or the deterministic
// metric gets +Inf, so every link is scored.
func (r *TicketRouter) stabilityBound(ls netstack.LinkState) (bound float64, exact bool) {
	if r.scorer != nil || r.metric == MetricDeterministic {
		return math.Inf(1), false
	}
	if m := r.memoEntry(ls.ID); m.holds(ls) {
		return m.val, true
	}
	return linkStateStabilityBound(r.API, r.metric, ls), false
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
// that is an integral saved per neighbor skipped.
func (r *TicketRouter) candidates(dst netstack.NodeID, path []netstack.NodeID, k int) []candidate {
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
	// stable: equal bounds — every one, for a scorer — score in table order
	slices.SortStableFunc(admissible, func(a, b bounded) int { return cmp.Compare(b.bound, a.bound) })
	var out []candidate
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

// splitTickets distributes l tickets over n ranked candidates: the best
// candidate gets the ceiling share, every funded candidate gets at least
// one, and no more candidates are funded than tickets exist.
func splitTickets(l, n int) []int {
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	if l <= 0 {
		return out
	}
	funded := n
	if l < n {
		funded = l
	}
	base := l / funded
	rem := l % funded
	for i := 0; i < funded; i++ {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
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
		r.handleData(pkt)
	}
}

func (r *TicketRouter) handleProbe(pkt *netstack.Packet) {
	pr, ok := pkt.Payload.(probe)
	if !ok || pr.Origin == r.API.Self() {
		return
	}
	// Fold in the stability of the link just traversed, as measured at
	// the receiving end (the survey's probing is per-link, both ends see
	// the beacons).
	inStab := pr.Stability
	if ls, okLs := r.API.LinkState(pkt.From); okLs {
		s := r.stability(ls)
		if s < inStab {
			inStab = s
		}
	}
	path := append(append([]netstack.NodeID(nil), pr.Path...), r.API.Self())
	if pr.Target == r.API.Self() {
		r.sel.Offer(r.API, routing.DupKey{Origin: pr.Origin, Seq: pr.ReqID}, inStab,
			bestPath{hops: path, stability: inStab})
		return
	}
	pkt.TTL--
	if pkt.Expired() {
		return
	}
	cands := r.candidates(pr.Target, path, pr.Tickets)
	if len(cands) == 0 {
		return // ticket dies here
	}
	limit := pr.Tickets
	if limit > len(cands) {
		limit = len(cands)
	}
	split := splitTickets(pr.Tickets, limit)
	for i := 0; i < limit; i++ {
		if split[i] == 0 {
			continue
		}
		stab := inStab
		if cands[i].stability < stab {
			stab = cands[i].stability
		}
		cp := pr
		cp.Tickets = split[i]
		cp.Path = path
		cp.Stability = stab
		fwd := pkt.Clone()
		fwd.Payload = cp
		fwd.Size = 48 + 4*len(path)
		r.API.Send(cands[i].id, fwd)
	}
}

// answer returns the best probed path to the origin.
func (r *TicketRouter) answer(origin netstack.NodeID, best bestPath) {
	path := best.hops
	if len(path) < 2 {
		return
	}
	r.API.Send(path[len(path)-2], r.Control(netstack.KindRREP, origin, 32+4*len(path),
		reply{Origin: origin, Target: r.API.Self(), Path: path, Stability: best.stability}))
}

func (r *TicketRouter) handleReply(pkt *netstack.Packet) {
	rep, ok := pkt.Payload.(reply)
	if !ok {
		return
	}
	self := r.API.Self()
	idx := slices.Index(rep.Path, self)
	if idx < 0 {
		return
	}
	if self == rep.Origin {
		stab := rep.Stability
		r.paths[rep.Target] = &activePath{
			hops: append([]netstack.NodeID(nil), rep.Path...), stability: stab,
			built: r.API.Now(),
		}
		r.API.Metrics().OnPathLifetime(routing.CapLife(stab))
		r.Answered(rep.Target)
		// stability-driven preemptive rebuild
		if stab != link.Forever {
			lead := routing.CapLife(stab) - rebuildMargin
			if lead < 0.1 {
				lead = 0.1
			}
			target := rep.Target
			r.API.After(lead, func() {
				if _, okP := r.paths[target]; okP || r.Waiting(target) {
					delete(r.paths, target)
					r.API.Metrics().RouteRepairs++
					r.Start(target)
				}
			})
		}
		return
	}
	routing.RelayBack(r.API, pkt, rep.Path, idx)
}

// breakNotice reports a dead source route back to the origin.
type breakNotice struct {
	Origin netstack.NodeID
	Target netstack.NodeID
}

func (r *TicketRouter) handleBreak(pkt *netstack.Packet) {
	bn, ok := pkt.Payload.(breakNotice)
	if !ok || bn.Origin != r.API.Self() {
		return
	}
	if _, okP := r.paths[bn.Target]; okP {
		delete(r.paths, bn.Target)
		r.API.Metrics().RouteBreaks++
		r.Start(bn.Target)
	}
}

func (r *TicketRouter) handleData(pkt *netstack.Packet) {
	routing.ForwardSourceRouted(r.API, pkt, r.brokenHop)
}

// brokenHop reports a source route whose link out of this node broke.
func (r *TicketRouter) brokenHop(hdr routing.SourceRoute, _ netstack.NodeID) {
	r.reportBreak(hdr.Path, hdr.Next)
}

// reportBreak unicasts a break notice back toward the origin along the
// upstream part of the source route.
func (r *TicketRouter) reportBreak(path []netstack.NodeID, selfIdx int) {
	if selfIdx <= 0 || selfIdx >= len(path) {
		return
	}
	origin := path[0]
	target := path[len(path)-1]
	r.API.Send(path[selfIdx-1], r.Control(netstack.KindRERR, origin, 24,
		breakNotice{Origin: origin, Target: target}))
}

// OnSendFailed implements netstack.Router: a probed path broke under data
// — blacklist, report upstream (or re-probe when we are the origin), and
// count the break.
func (r *TicketRouter) OnSendFailed(pkt *netstack.Packet, to netstack.NodeID) {
	r.API.ForgetNeighbor(to)
	hdr, ok := pkt.Payload.(routing.SourceRoute)
	if !ok || !pkt.Data {
		return
	}
	if r.API.Self() == hdr.Path[0] {
		// origin: rebuild and requeue this packet
		target := pkt.Dst
		if _, okP := r.paths[target]; okP {
			delete(r.paths, target)
			r.API.Metrics().RouteBreaks++
		}
		pkt.Payload = nil
		r.Queue(pkt)
		return
	}
	r.API.Metrics().RouteBreaks++
	r.API.Drop(pkt)
	r.reportBreak(hdr.Path, hdr.Next)
}

// OnNeighborExpired implements netstack.Router: source-side paths whose
// first hop died are rebuilt immediately.
func (r *TicketRouter) OnNeighborExpired(id netstack.NodeID) {
	var broken []netstack.NodeID
	for dst, ap := range r.paths {
		if len(ap.hops) >= 2 && ap.hops[1] == id {
			broken = append(broken, dst)
		}
	}
	// Start draws a UID and broadcasts probes: map order would reach the MAC
	slices.Sort(broken)
	for _, dst := range broken {
		delete(r.paths, dst)
		r.API.Metrics().RouteBreaks++
		if r.Waiting(dst) {
			r.Start(dst)
		}
	}
}

// ActivePath exposes the current source route for tests.
func (r *TicketRouter) ActivePath(dst netstack.NodeID) ([]netstack.NodeID, float64, bool) {
	ap, ok := r.paths[dst]
	if !ok {
		return nil, 0, false
	}
	return append([]netstack.NodeID(nil), ap.hops...), ap.stability, true
}
