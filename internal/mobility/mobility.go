// Package mobility moves vehicles over a road network. It provides the
// Intelligent Driver Model (IDM) for car-following, a simple incentive-based
// lane-change rule, route progression at junctions, and a trace-playback
// adapter, all behind a single Model interface the network stack polls each
// mobility tick.
//
// The survey's premise is that "cars in various lanes move at different
// speed, making the underlying network highly dynamic"; this package is the
// source of that dynamism, so its realism bar is: heterogeneous speeds,
// lane structure, direction mix, and density regimes from sparse to jammed.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/roadnet"
)

// VehicleID identifies a vehicle within a Model. IDs are dense, starting at
// zero, and never reused.
type VehicleID int32

// State is the externally visible kinematic state of a vehicle.
type State struct {
	ID      VehicleID
	Pos     geom.Vec2 // plane position, meters
	Vel     geom.Vec2 // velocity vector, m/s
	Speed   float64   // scalar speed, m/s
	Accel   float64   // scalar acceleration along heading, m/s²
	Segment roadnet.SegmentID
	Lane    int
	Offset  float64 // meters along the segment
	Class   Class
}

// Class tags special vehicle roles the protocols care about.
type Class int

const (
	// Car is an ordinary vehicle.
	Car Class = iota + 1
	// Bus is a message-ferry bus on a regular route (Kitani's protocol).
	Bus
)

// Model is the interface the simulation polls. Advance moves every vehicle
// by dt seconds; States returns the current state of every active vehicle.
// StatesInto appends the same states to dst and returns the extended slice,
// so per-tick pollers can reuse one buffer instead of allocating a fresh
// snapshot every tick.
type Model interface {
	Advance(dt float64)
	States() []State
	StatesInto(dst []State) []State
	// Len returns the number of active vehicles.
	Len() int
}

// IDMParams are the Intelligent Driver Model parameters.
type IDMParams struct {
	DesiredSpeed float64 // v0: free-flow speed, m/s
	TimeHeadway  float64 // T: safe time headway, s
	MaxAccel     float64 // a: maximum acceleration, m/s²
	ComfortDecel float64 // b: comfortable braking, m/s²
	MinGap       float64 // s0: minimum bumper gap, m
	Length       float64 // vehicle length, m
}

// DefaultIDM returns standard passenger-car IDM parameters with the given
// desired speed.
func DefaultIDM(desiredSpeed float64) IDMParams {
	return IDMParams{
		DesiredSpeed: desiredSpeed,
		TimeHeadway:  1.5,
		MaxAccel:     1.4,
		ComfortDecel: 2.0,
		MinGap:       2.0,
		Length:       5.0,
	}
}

// accel returns the IDM acceleration for a vehicle at speed v with a gap
// (bumper to bumper) and approach rate dv = v − vLeader. Pass gap = +Inf
// for free road.
func (p IDMParams) accel(v, gap, dv float64) float64 {
	// (v/v0)^4 as two squarings. math.Pow's integer-exponent path computes
	// exactly this repeated-squaring product (one rounding per squaring),
	// so the result is bit-identical for the physical domain here — and an
	// order of magnitude cheaper in the per-vehicle hot loop.
	r := v / math.Max(p.DesiredSpeed, 0.1)
	r2 := r * r
	free := 1 - r2*r2
	if math.IsInf(gap, 1) {
		return p.MaxAccel * free
	}
	if gap < 0.1 {
		gap = 0.1
	}
	sStar := p.MinGap + math.Max(0, v*p.TimeHeadway+v*dv/(2*math.Sqrt(p.MaxAccel*p.ComfortDecel)))
	return p.MaxAccel * (free - (sStar/gap)*(sStar/gap))
}

// vehicle is the internal mutable vehicle record.
type vehicle struct {
	id      VehicleID
	class   Class
	params  IDMParams
	seg     roadnet.SegmentID
	lane    int
	offset  float64
	speed   float64
	accel   float64
	route   []roadnet.SegmentID // pending segments after the current one
	rngSeed int64               // drawn at AddVehicle; see random
	rng     *rand.Rand          // materialized on first draw
	rngSrc  *prng.Source        // counting source behind rng; nil until materialized
	// lane-change hysteresis: no second change for a short period
	laneCooldown float64
	// orderIdx is this vehicle's position in its (segment, lane) ordered
	// list, refreshed by advance's sort phases and kept exact by list
	// surgery between ticks; it makes the same-lane leader lookup O(1)
	// and makes ordered removal O(shift) instead of O(search).
	orderIdx int32
}

// memberMove records one vehicle leaving the lane list it occupied at the
// start of the lane-change or junction phase — because it changed lane,
// crossed a junction, or despawned. The phase only records; applyMoves
// performs the ordered remove (and, unless gone, the ordered reinsert
// under the vehicle's new key) once the phase has seen every vehicle.
type memberMove struct {
	v      *vehicle
	oldKey int32 // index into order the vehicle is being removed from
	gone   bool  // despawned: remove without reinsert
}

// random returns the vehicle's private RNG stream, materializing it on
// first use: the checkpoint stream table lists a vehicle's stream only
// once the vehicle has taken it, and a vehicle only draws when it crosses
// a junction with an empty route. The seed is drawn eagerly in AddVehicle,
// so the model's root stream is byte-identical whether or when this one
// materializes.
func (v *vehicle) random() *rand.Rand {
	if v.rng == nil {
		v.rng, v.rngSrc = prng.Rand(v.rngSeed)
	}
	return v.rng
}

// RoadModel moves vehicles over a roadnet.Network with IDM + lane changes.
// Vehicles follow per-vehicle routes; when the route runs out the
// NextSegment policy picks a continuation (ring roads loop forever,
// Manhattan grids turn randomly).
type RoadModel struct {
	net   *roadnet.Network
	vs    []*vehicle
	rng   *rand.Rand
	now   float64
	exitP ExitPolicy
	// order holds the per (segment, lane) vehicle lists, sorted by
	// (offset, ID) and indexed densely by seg*maxLanes+lane — no map
	// hashing in the per-vehicle hot path. Once listsLive is set the lists
	// persist across ticks and are maintained incrementally: integration
	// only perturbs order (fixed by the near-linear insertion resort), and
	// every membership change — lane change, junction transition, spawn,
	// despawn — is applied as an ordered remove/insert between phases.
	// Rebuilding and fully sorting from scratch each tick was the single
	// largest cost in dense worlds. vehBefore is a total order, so the
	// incrementally maintained lists are byte-identical to scratch-built
	// ones.
	order     [][]*vehicle
	maxLanes  int
	listsLive bool
	// moves is the membership-change buffer the lane-change and junction
	// phases fill in vehicle index order and applyMoves drains. The backing
	// array is reused.
	moves []memberMove
	// rngSrc is the counting source behind rng when the model was built
	// through NewRoadModelSeeded; nil for an externally supplied rng. The
	// model draws from it at runtime (one seed per spawned vehicle), so
	// the checkpoint stream table must cover it.
	rngSrc *prng.Source
	// maxVehLen and maxSpeedLimit bound any vehicle's follower safety
	// envelope Length + speed·1s + 2: lengths are fixed at spawn (the
	// high-water mark only ever rises) and speeds are clamped to their
	// segment's limit every integration step. maybeChangeLane uses the sum
	// to cut the follower safety scan off early; because the bound is
	// conservative, the truncated scan returns exactly the verdict the
	// full-list scan would.
	maxVehLen     float64
	maxSpeedLimit float64
}

// ExitPolicy decides what happens when a vehicle reaches the end of its
// current segment with an empty route.
type ExitPolicy int

const (
	// ContinueRandom picks a random outgoing segment (straight-biased).
	ContinueRandom ExitPolicy = iota + 1
	// Despawn removes the vehicle from the simulation.
	Despawn
)

// NewRoadModel returns an empty road mobility model.
func NewRoadModel(net *roadnet.Network, rng *rand.Rand, exit ExitPolicy) *RoadModel {
	if exit == 0 {
		exit = ContinueRandom
	}
	maxLanes := 1
	maxLimit := 0.0
	for s := 0; s < net.Segments(); s++ {
		seg := net.Segment(roadnet.SegmentID(s))
		if seg.Lanes > maxLanes {
			maxLanes = seg.Lanes
		}
		if seg.SpeedLimit > maxLimit {
			maxLimit = seg.SpeedLimit
		}
	}
	return &RoadModel{
		net: net, rng: rng, exitP: exit,
		order:         make([][]*vehicle, net.Segments()*maxLanes),
		maxLanes:      maxLanes,
		maxSpeedLimit: maxLimit,
	}
}

// NewRoadModelSeeded is NewRoadModel with the model's private RNG built
// from seed over a counting source, so checkpoints can record and verify
// its draw position. Scenario builders should prefer it; the draw
// sequence is identical to NewRoadModel(net, rand.New(rand.NewSource(
// seed)), exit).
func NewRoadModelSeeded(net *roadnet.Network, seed int64, exit ExitPolicy) *RoadModel {
	r, src := prng.Rand(seed)
	m := NewRoadModel(net, r, exit)
	m.rngSrc = src
	return m
}

// laneList returns the ordered vehicle list of one (segment, lane).
func (m *RoadModel) laneList(seg roadnet.SegmentID, lane int) []*vehicle {
	return m.order[int(seg)*m.maxLanes+lane]
}

// Network returns the underlying road network.
func (m *RoadModel) Network() *roadnet.Network { return m.net }

// AddVehicle places a vehicle and returns its ID. Speed starts at the
// smaller of the desired speed and the segment limit.
func (m *RoadModel) AddVehicle(seg roadnet.SegmentID, lane int, offset float64, params IDMParams, class Class) VehicleID {
	s := m.net.Segment(seg)
	if lane < 0 {
		lane = 0
	}
	if lane >= s.Lanes {
		lane = s.Lanes - 1
	}
	v := &vehicle{
		id:      VehicleID(len(m.vs)),
		class:   class,
		params:  params,
		seg:     seg,
		lane:    lane,
		offset:  math.Mod(math.Abs(offset), math.Max(s.Length(), 1)),
		speed:   math.Min(params.DesiredSpeed, s.SpeedLimit),
		rngSeed: m.rng.Int63(),
	}
	if params.Length > m.maxVehLen {
		m.maxVehLen = params.Length
	}
	m.vs = append(m.vs, v)
	if m.listsLive {
		m.insertOrdered(v)
	}
	return v.id
}

// SetRoute assigns the pending segment route of a vehicle (after its
// current segment).
func (m *RoadModel) SetRoute(id VehicleID, route []roadnet.SegmentID) {
	v := m.vs[id]
	v.route = append(v.route[:0], route...)
}

// RemoveVehicle despawns a vehicle mid-run (open-world churn: a car
// reaching its destination and parking, or leaving the simulated area).
// The ID is never reused; the vehicle simply stops appearing in States.
// It reports whether the vehicle was present.
func (m *RoadModel) RemoveVehicle(id VehicleID) bool {
	if id < 0 || int(id) >= len(m.vs) || m.vs[id] == nil {
		return false
	}
	v := m.vs[id]
	m.vs[id] = nil
	if m.listsLive {
		m.removeOrdered(int32(int(v.seg)*m.maxLanes+v.lane), v)
	}
	return true
}

// Len implements Model: the number of active (non-despawned) vehicles.
func (m *RoadModel) Len() int {
	n := 0
	for _, v := range m.vs {
		if v != nil {
			n++
		}
	}
	return n
}

// Advance implements Model: one mobility step as a sequence of per-vehicle
// phases. Every phase reads only state the previous phase left final, and
// the phase order is semantics, not scheduling:
//
//   - accel: reads leaders' offset/speed as they stood before anyone
//     moved, writes only v.accel.
//   - integrate: reads only v.accel, writes v.speed/v.offset/cooldown.
//   - resort + lane changes + junctions: lane changes write only v.lane
//     (list membership stays stale through the phase, so every decision
//     sees the same pre-change lists; applyMoves splices them afterwards),
//     and junction transitions touch only the vehicle's own record and
//     slot, drawing only its private RNG.
//
// Lane changes and junctions stay separate phases: a junction transition
// rewrites v.offset relative to a new segment, and every lane-change
// decision observes pre-transition offsets.
//
// The lane lists are rebuilt from scratch only on the first tick after
// construction (or restore). Every later tick inherits lists that are
// already membership-exact and sorted: the previous tick's applyMoves
// applied every lane change, junction move, and despawn, and AddVehicle/
// RemoveVehicle splice between ticks. Since vehBefore is a total order,
// "maintained incrementally" and "rebuilt from scratch" denote the same
// unique permutation — the skip changes no observable state.
func (m *RoadModel) Advance(dt float64) {
	m.now += dt
	if !m.listsLive {
		m.bucketOrder()
		for _, list := range m.order {
			sortVehicles(list)
			for i, o := range list {
				o.orderIdx = int32(i)
			}
		}
		m.listsLive = true
	}
	// 1. accelerations from current leaders
	for _, v := range m.vs {
		if v == nil {
			continue
		}
		gap, leadSpeed := m.gapAhead(v, v.lane)
		limit := m.net.Segment(v.seg).SpeedLimit
		a := v.params.accel(v.speed, gap, v.speed-leadSpeed)
		// respect the speed limit as the v_m clamp
		if v.speed > limit {
			a = math.Min(a, -v.params.ComfortDecel)
		}
		v.accel = clampF(a, -8, v.params.MaxAccel)
	}
	// 2. integrate
	for _, v := range m.vs {
		if v == nil {
			continue
		}
		v.speed = clampF(v.speed+v.accel*dt, 0, m.net.Segment(v.seg).SpeedLimit)
		v.offset += v.speed * dt
		if v.laneCooldown > 0 {
			v.laneCooldown -= dt
		}
	}
	// 3. lane changes (after movement so gaps reflect fresh positions).
	// Integration never moves a vehicle across a (segment, lane) list, so
	// membership is unchanged since the rebuild above — re-sorting the
	// nearly-sorted lists in place is enough (and ~linear).
	for _, list := range m.order {
		insertionSortVehicles(list)
		for i, o := range list {
			o.orderIdx = int32(i)
		}
	}
	for _, v := range m.vs {
		if v == nil {
			continue
		}
		oldLane := v.lane
		m.maybeChangeLane(v)
		if v.lane != oldLane {
			m.moves = append(m.moves, memberMove{v: v, oldKey: int32(int(v.seg)*m.maxLanes + oldLane)})
		}
	}
	// The lane merge runs before the junction phase so junction records
	// capture the post-lane-change key; nothing in the junction phase
	// reads the lists, so the mid-tick splice is unobservable.
	m.applyMoves()
	// 4. junction transitions
	for i, v := range m.vs {
		if v == nil {
			continue
		}
		seg := m.net.Segment(v.seg)
		if v.offset < seg.Length() {
			continue
		}
		// The vehicle leaves its current list: it either enters a new
		// segment, despawns, or parks at a dead end (same key, new
		// offset — still a remove+reinsert to keep the list sorted).
		oldKey := int32(int(v.seg)*m.maxLanes + v.lane)
		for v.offset >= seg.Length() {
			over := v.offset - seg.Length()
			next, ok := m.nextSegment(v)
			if !ok {
				if m.exitP == Despawn {
					m.vs[i] = nil
				} else {
					v.offset = seg.Length()
					v.speed = 0
				}
				break
			}
			v.seg = next
			seg = m.net.Segment(next)
			if v.lane >= seg.Lanes {
				v.lane = seg.Lanes - 1
			}
			v.offset = over
		}
		m.moves = append(m.moves, memberMove{v: v, oldKey: oldKey, gone: m.vs[i] == nil})
	}
	m.applyMoves()
}

// applyMoves drains the membership-move buffer in the order it was filled
// (vehicle index order): list splices and the orderIdx fixups they imply.
func (m *RoadModel) applyMoves() {
	for _, mv := range m.moves {
		m.removeOrdered(mv.oldKey, mv.v)
		if !mv.gone {
			m.insertOrdered(mv.v)
		}
	}
	clear(m.moves) // don't pin despawned vehicles through the reused buffer
	m.moves = m.moves[:0]
}

// removeOrdered splices v out of the lane list at key, preserving order
// and restoring the orderIdx invariant for every shifted entry. v.orderIdx
// is trusted: it is exact whenever applyMoves runs and between ticks.
func (m *RoadModel) removeOrdered(key int32, v *vehicle) {
	list := m.order[key]
	i := int(v.orderIdx)
	copy(list[i:], list[i+1:])
	list = list[:len(list)-1]
	m.order[key] = list
	for ; i < len(list); i++ {
		list[i].orderIdx = int32(i)
	}
}

// insertOrdered splices v into the lane list of its current (segment,
// lane) at the position vehBefore dictates, fixing orderIdx from the
// insertion point on.
func (m *RoadModel) insertOrdered(v *vehicle) {
	key := int(v.seg)*m.maxLanes + v.lane
	list := m.order[key]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vehBefore(list[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list = append(list, nil)
	copy(list[lo+1:], list[lo:])
	list[lo] = v
	m.order[key] = list
	for i := lo; i < len(list); i++ {
		list[i].orderIdx = int32(i)
	}
}

// nextSegment pops the route or applies the exit policy.
func (m *RoadModel) nextSegment(v *vehicle) (roadnet.SegmentID, bool) {
	if len(v.route) > 0 {
		next := v.route[0]
		v.route = v.route[1:]
		return next, true
	}
	choices := m.net.NextSegments(v.seg)
	if len(choices) == 0 {
		return 0, false
	}
	if m.exitP == Despawn {
		return 0, false
	}
	// straight bias: prefer the continuation with the closest heading
	cur := m.net.Segment(v.seg).Dir()
	if v.random().Float64() < 0.7 {
		best := choices[0]
		bd := -math.MaxFloat64
		for _, c := range choices {
			if d := m.net.Segment(c).Dir().Dot(cur); d > bd {
				bd = d
				best = c
			}
		}
		return best, true
	}
	return choices[v.random().Intn(len(choices))], true
}

// bucketOrder refills the per-(segment, lane) lists from the live vehicle
// set, leaving them unsorted — the sort (plus orderIdx refresh) runs as
// the first phase of the one rebuild tick; every later tick
// maintains the lists incrementally and skips both. Lane lists are
// truncated and refilled in place (instead of reallocated) so their
// backing arrays are reused. Equal-offset vehicles order by ID because
// vehBefore breaks ties on ID (a total order — the sort need not be
// stable), the invariant gapAhead's tie-break relies on.
func (m *RoadModel) bucketOrder() {
	for k, list := range m.order {
		if len(list) > 0 {
			m.order[k] = list[:0]
		}
	}
	for _, v := range m.vs {
		if v == nil {
			continue
		}
		k := int(v.seg)*m.maxLanes + v.lane
		m.order[k] = append(m.order[k], v)
	}
}

// vehBefore is the lane-list order: by offset, ties broken by ID. It is a
// total order (IDs are unique), so every sort below produces the same
// list regardless of input permutation — which is what lets the full sort
// (ID-ordered input from bucketOrder) and the insertion resort
// (previous-tick order) coexist deterministically.
func vehBefore(a, b *vehicle) bool {
	if a.offset != b.offset {
		return a.offset < b.offset
	}
	return a.id < b.id
}

func insertionSortVehicles(list []*vehicle) {
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && vehBefore(list[j], list[j-1]); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}

// sortVehicles sorts a lane list from scratch. Rebuilds feed it ID-ordered
// (i.e. effectively random by offset) input, where insertion sort alone is
// quadratic — at 1,000 vehicles that was the single largest cost in the
// whole simulation. vehBefore is a total order, so the unstable stdlib
// sort still yields one unique permutation.
func sortVehicles(list []*vehicle) {
	slices.SortFunc(list, func(a, b *vehicle) int {
		// open-coded vehBefore both ways: one comparison per pair instead
		// of two full vehBefore calls — this comparator is the hottest
		// function in dense worlds
		if a.offset != b.offset {
			if a.offset < b.offset {
				return -1
			}
			return 1
		}
		if a.id != b.id {
			if a.id < b.id {
				return -1
			}
			return 1
		}
		return 0
	})
}

// gapAhead returns the bumper gap and speed of the leader in the given lane
// of v's segment (or on the following segment within lookahead). Gap is
// +Inf on free road.
//
// Lane lists are sorted by (offset, ID), so the same-lane leader is simply
// the next list entry after v (everything before v is behind it or an
// excluded equal-offset lower ID); for a foreign lane, a binary search
// finds the first candidate at or ahead of v's offset.
func (m *RoadModel) gapAhead(v *vehicle, lane int) (gap, leaderSpeed float64) {
	list := m.laneList(v.seg, lane)
	var leader *vehicle
	if lane == v.lane && int(v.orderIdx) < len(list) && list[v.orderIdx] == v {
		if int(v.orderIdx)+1 < len(list) {
			leader = list[v.orderIdx+1]
		}
	} else {
		lo, hi := 0, len(list)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if list[mid].offset < v.offset {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for ; lo < len(list); lo++ {
			o := list[lo]
			if o == v {
				continue
			}
			if o.offset == v.offset && o.id < v.id {
				continue // deterministic tie-break
			}
			leader = o
			break
		}
	}
	if leader != nil {
		return leader.offset - v.offset - leader.params.Length, leader.speed
	}
	return m.lookaheadGap(v, lane)
}

// lookaheadGap is gapAhead's empty-lane tail: when no leader exists on
// v's own segment, peek into the next segment the vehicle would enter
// (within 100 m) and measure against its first occupant. +Inf on free
// road.
func (m *RoadModel) lookaheadGap(v *vehicle, lane int) (gap, leaderSpeed float64) {
	remaining := m.net.Segment(v.seg).Length() - v.offset
	if remaining < 100 {
		var nextSeg roadnet.SegmentID = -1
		if len(v.route) > 0 {
			nextSeg = v.route[0]
		} else if ns := m.net.NextSegments(v.seg); len(ns) == 1 {
			nextSeg = ns[0]
		}
		if nextSeg >= 0 {
			nl := lane
			if nl >= m.net.Segment(nextSeg).Lanes {
				nl = m.net.Segment(nextSeg).Lanes - 1
			}
			for _, o := range m.laneList(nextSeg, nl) {
				return remaining + o.offset - o.params.Length, o.speed
			}
		}
	}
	return math.Inf(1), 0
}

// maybeChangeLane applies a simplified MOBIL rule: change lane when the
// target lane offers a clearly better gap and the follower there is not
// forced to brake hard.
func (m *RoadModel) maybeChangeLane(v *vehicle) {
	seg := m.net.Segment(v.seg)
	if seg.Lanes < 2 || v.laneCooldown > 0 {
		return
	}
	curGap, _ := m.gapAhead(v, v.lane)
	if curGap > v.speed*3+20 {
		return // no incentive
	}
	for _, cand := range [2]int{v.lane - 1, v.lane + 1} {
		if cand < 0 || cand >= seg.Lanes {
			continue
		}
		if m.laneChangeOK(v, cand, curGap) {
			v.lane = cand
			v.laneCooldown = 4
			return
		}
	}
}

// laneChangeOK evaluates one candidate lane with a single binary search:
// the insertion position of v's offset yields both the prospective leader
// (first entry at or ahead, same tie-break gapAhead uses) and the two
// safety windows around it. The follower scan walks backwards from the
// split and stops once the distance exceeds the model-wide reach bound
// maxVehLen + maxSpeedLimit + 2 ≥ any follower's Length + speed·1s + 2;
// the leader scan walks forward and stops at v's own (exact) envelope.
// Both cutoffs are sound, so the verdict — gap incentive first, then
// safety, exactly the sequential rule's order — matches a full-list scan
// bit for bit. v is never in the candidate list (membership is keyed by
// v.lane and stays frozen through the lane-change phase).
func (m *RoadModel) laneChangeOK(v *vehicle, cand int, curGap float64) bool {
	list := m.laneList(v.seg, cand)
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].offset < v.offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// leader + incentive gap, matching gapAhead's foreign-lane semantics
	var leader *vehicle
	for i := lo; i < len(list); i++ {
		o := list[i]
		if o.offset == v.offset && o.id < v.id {
			continue // deterministic tie-break
		}
		leader = o
		break
	}
	var newGap float64
	if leader != nil {
		newGap = leader.offset - v.offset - leader.params.Length
	} else {
		newGap, _ = m.lookaheadGap(v, cand)
	}
	if newGap < curGap*1.5+5 {
		return false // no incentive
	}
	// safety: follower in target lane must keep ≥ minGap
	reach := m.maxVehLen + m.maxSpeedLimit + 2
	for i := lo - 1; i >= 0; i-- {
		o := list[i]
		d := v.offset - o.offset
		if d >= reach {
			break
		}
		if d < o.params.Length+o.speed*1.0+2 {
			return false // follower too close behind
		}
	}
	// Ahead, v's envelope is the same for every entry and offsets ascend,
	// so only the nearest at-or-ahead entry can decide. Equal offset means
	// a zero follower gap — always unsafe, whichever side of the ID
	// tie-break the entry is on.
	if lo < len(list) {
		o := list[lo]
		if o.offset == v.offset {
			return false // side-by-side: zero gap
		}
		if o.offset-v.offset < v.params.Length+v.speed*1.0+2 {
			return false // leader too close ahead
		}
	}
	return true
}

// States implements Model.
func (m *RoadModel) States() []State {
	return m.StatesInto(make([]State, 0, len(m.vs)))
}

// StatesInto implements Model: it appends every active vehicle's state to
// dst, allocating only when dst lacks capacity.
func (m *RoadModel) StatesInto(dst []State) []State {
	for _, v := range m.vs {
		if v == nil {
			continue
		}
		dst = append(dst, m.stateOf(v))
	}
	return dst
}

// DigestInto folds the model's checkpoint-relevant state into d: the
// mobility clock and, for every vehicle slot in ID order, the full
// kinematic record plus the private RNG stream position. Despawned slots
// digest as a tombstone so "vehicle 7 left" and "vehicle 7 never existed"
// cannot collide. orderIdx and the order lists are per-tick scratch
// rebuilt from this state, so they are intentionally excluded.
func (m *RoadModel) DigestInto(d *digest.Writer) {
	d.F64(m.now)
	if m.rngSrc != nil {
		d.Bool(true)
		d.I64(m.rngSrc.SeedValue())
		d.U64(m.rngSrc.Draws())
	} else {
		d.Bool(false)
	}
	d.Int(len(m.vs))
	for _, v := range m.vs {
		if v == nil {
			d.Bool(false)
			continue
		}
		d.Bool(true)
		d.U32(uint32(v.id))
		d.Int(int(v.class))
		d.U32(uint32(v.seg))
		d.Int(v.lane)
		d.F64(v.offset)
		d.F64(v.speed)
		d.F64(v.accel)
		d.F64(v.laneCooldown)
		d.Int(len(v.route))
		for _, s := range v.route {
			d.U32(uint32(s))
		}
		d.I64(v.rngSeed)
		if v.rngSrc != nil {
			d.U64(v.rngSrc.Draws())
		} else {
			d.U64(0)
		}
	}
}

// AppendStreamStates appends the (seed, draw position) of every
// materialized per-vehicle RNG stream to dst. Unmaterialized streams are
// omitted — a seed with zero draws reproduces itself on demand.
func (m *RoadModel) AppendStreamStates(dst []prng.State) []prng.State {
	if m.rngSrc != nil {
		dst = append(dst, prng.StateOf("mobility/model", m.rngSrc))
	}
	for _, v := range m.vs {
		if v == nil || v.rngSrc == nil {
			continue
		}
		dst = append(dst, prng.StateOf(fmt.Sprintf("mobility/vehicle%d", v.id), v.rngSrc))
	}
	return dst
}

// stateOf projects one vehicle's externally visible state.
func (m *RoadModel) stateOf(v *vehicle) State {
	seg := m.net.Segment(v.seg)
	return State{
		ID:      v.id,
		Pos:     seg.PosAt(v.lane, v.offset),
		Vel:     seg.Heading(v.speed),
		Speed:   v.speed,
		Accel:   v.accel,
		Segment: v.seg,
		Lane:    v.lane,
		Offset:  v.offset,
		Class:   v.class,
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
