package netstack

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/mac"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/par"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/radio"
	"github.com/vanetlab/relroute/internal/sim"
	"github.com/vanetlab/relroute/internal/spatial"
)

// Config parameterises a World.
type Config struct {
	// Seed drives every random stream of the run.
	Seed int64
	// Tick is the mobility update interval in seconds. Zero means 0.1.
	Tick float64
	// BeaconInterval is the HELLO period in seconds. Zero means 1.0.
	BeaconInterval float64
	// NeighborTTL is the neighbor expiry in seconds. Zero means
	// 2.5 × BeaconInterval.
	NeighborTTL float64
	// BeaconSize is the HELLO frame size in bytes. Zero means 32.
	BeaconSize int
	// Channel is the propagation model. Nil means UnitDisk{250}.
	Channel channel.Model
	// MAC holds the MAC parameters.
	MAC mac.Config
	// LocationStaleness is the update period of the idealised location
	// service in seconds; lookups return positions up to this stale.
	// Zero means 1.0.
	LocationStaleness float64
	// Estimator selects the reliability plane's link-quality estimator by
	// registry name (see linkstate.Names). Empty means "composite": the
	// kinematic Eqn (4) lifetime plus the RSSI receipt model — exactly the
	// predictions the protocols computed before the plane existed.
	Estimator string
}

func (c Config) tick() float64 {
	if c.Tick <= 0 {
		return 0.1
	}
	return c.Tick
}

func (c Config) beaconInterval() float64 {
	if c.BeaconInterval <= 0 {
		return 1.0
	}
	return c.BeaconInterval
}

func (c Config) neighborTTL() float64 {
	if c.NeighborTTL <= 0 {
		return 2.5 * c.beaconInterval()
	}
	return c.NeighborTTL
}

func (c Config) beaconSize() int {
	if c.BeaconSize <= 0 {
		return 32
	}
	return c.BeaconSize
}

// node is the internal per-node record. The fields a reception reads come
// first and together: a broadcast touches ~25 nodes, each cold.
type node struct {
	id       NodeID
	active   bool
	left     bool // the vehicle departed the mobility model; failure injection clears only active
	kind     NodeKind
	pos, vel geom.Vec2
	heard    BeaconListener // router, if it listens for beacons
	mon      linkstate.Monitor
	router   Router
	rngSeed  int64              // drawn at addNode; see random
	rng      *rand.Rand         // materialized on first draw
	rngSrc   *prng.Source       // counting source behind rng; nil until materialized
	vehID    mobility.VehicleID // -1 for static nodes
	seenStep uint64             // last mobility step whose snapshot held this vehicle (open worlds)
}

// random returns the node's private RNG stream, materializing it on first
// use: seeding a math/rand generator costs ~600 mixing steps, and a node
// that never draws (no beacons to jitter, no shadowing RSSI) should not
// pay for one. The seed is drawn eagerly in addNode, so the root stream —
// and with it every other component's stream — is byte-identical whether
// or when this one materializes.
func (n *node) random() *rand.Rand {
	if n.rng == nil {
		n.rng, n.rngSrc = prng.Rand(n.rngSeed)
	}
	return n.rng
}

// beacon is the HELLO payload.
type beacon struct {
	kind NodeKind
	pos  geom.Vec2
	vel  geom.Vec2
}

// World owns one simulation run: engine, mobility, radio stack, nodes,
// flows and metrics.
type World struct {
	cfg   Config
	eng   *sim.Engine
	model mobility.Model
	grid  *spatial.Grid
	ch    channel.Model
	links *radio.Cache
	mac   *mac.Layer
	col   *metrics.Collector
	nodes []*node
	byVeh []*node // vehicle ID → node; vehicle IDs are dense from 0
	uid   uint64

	// actives is the sorted-by-ID slice of nodes with active == true, so
	// sweeps iterate members instead of scanning every node ever created.
	actives []*node

	// est is the shared link-quality estimator every node's Monitor
	// predicts with (Config.Estimator); audit is the optional ground-truth
	// link-break tracker behind the link-accuracy experiment.
	est   linkstate.Estimator
	audit *linkAudit

	// open-world membership: when joinFactory is non-nil the world is
	// open — vehicles appearing in the mobility model after the run
	// started get a node (running a fresh router from the factory), and
	// vehicles that disappear from the model have their node leave.
	// stepSeq stamps each mobility step so leave detection is one flag
	// comparison per node; beaconing records whether Run armed the HELLO
	// substrate so joiners get their own beacon ticker.
	joinFactory RouterFactory
	stepSeq     uint64
	beaconing   bool
	joins       int
	leaves      int

	// idealised location service: last sampled kinematics, dense by node ID
	locPos []geom.Vec2
	locVel []geom.Vec2
	locOK  []bool

	// fault-plane hooks (see faultplane.go); all nil unless a fault
	// schedule is installed, so fault-free runs pay one nil check per
	// call site and draw nothing extra.
	beaconFilter     func(NodeID, *rand.Rand) bool
	faultBeaconHeard func(NodeID)
	onFirstDelivery  func(created float64)
	faultWindow      func(now float64) bool

	// stateBuf is the reused mobility snapshot buffer for the tick loop.
	stateBuf []mobility.State

	// free lists: the engine is single-threaded, so recycling needs no
	// synchronisation. pktFree recycles per-receiver dispatch clones that
	// routers hand back via API.Release or send with API.SendFinal;
	// helloFree recycles beacon packets (payload *beacon included). Both
	// kinds of sent packet come back once the MAC reports the frame done.
	pktFree   []*Packet
	helloFree []*Packet

	// checkpoint plane: named RNG streams registered by the scenario layer
	// (traffic churn, road-model continuation draws) so the snapshot's
	// stream table covers every generator the run consumes; started tracks
	// whether StartRun armed the tickers (segmented runs call it once).
	extStreams []namedStream
	started    bool
}

// namedStream is one externally owned RNG stream the checkpoint stream
// table reports.
type namedStream struct {
	name string
	src  *prng.Source
}

// RegisterStream adds an externally owned counting RNG source to the
// world's checkpoint stream table. The scenario layer registers the
// generators it creates outside the engine (road-model continuation
// draws, open-world churn) so a snapshot can record — and a restore can
// verify — every stream position the run depends on.
func (w *World) RegisterStream(name string, src *prng.Source) {
	w.extStreams = append(w.extStreams, namedStream{name: name, src: src})
}

// NewWorld builds a world over the given mobility model. Call one of the
// node-population methods, then Run.
func NewWorld(cfg Config, model mobility.Model) *World {
	eng := sim.NewEngine(cfg.Seed)
	ch := cfg.Channel
	if ch == nil {
		ch = channel.UnitDisk{Range: 250}
	}
	col := metrics.NewCollector()
	cell := ch.MaxRange()
	if cell <= 0 {
		cell = 250
	}
	w := &World{
		cfg:   cfg,
		eng:   eng,
		model: model,
		grid:  spatial.NewGrid(cell),
		ch:    ch,
		col:   col,
	}
	// The reliability plane's estimator is shared by every node's Monitor.
	// Unknown names are a programmer error (scenario.Build validates user
	// input before it reaches here).
	w.est = linkstate.MustNew(cfg.Estimator, linkstate.Config{Range: ch.MeanRange()})
	// The radio link cache is the world's shared transmit fast path: the
	// MAC resolves every frame (data and beacons alike) against it, and the
	// world owns its invalidation — each mobility step's grid updates, plus
	// incremental join/leave and failure injection, advance the grid epoch
	// the cache keys on.
	w.links = radio.NewCache(w.grid, ch)
	w.mac = mac.NewLayer(eng, w.links, cfg.MAC, col, w.dispatch, w.txFailed)
	w.mac.OnFrameDone(w.frameDone)
	return w
}

// Radio exposes the shared per-epoch link cache (harness instrumentation
// and tests; protocols must observe the world through beacons).
func (w *World) Radio() *radio.Cache { return w.links }

// getPacket takes a packet from the pool (or allocates one). Callers own
// the result until they pass it to Send or Release.
func (w *World) getPacket() *Packet {
	if n := len(w.pktFree); n > 0 {
		p := w.pktFree[n-1]
		w.pktFree = w.pktFree[:n-1]
		return p
	}
	return &Packet{}
}

// putPacket recycles a packet. The caller asserts no reference to it
// remains anywhere — see the ownership rules in the README's Performance
// section.
func (w *World) putPacket(p *Packet) {
	*p = Packet{}
	w.pktFree = append(w.pktFree, p)
}

// frameDone is the MAC's frame-lifecycle hook: by the time it fires, every
// receiver upcall for the frame has run, so the packets nobody but the
// stack still holds — beacons, and what a router sent with SendFinal — can
// be recycled.
func (w *World) frameDone(f mac.Frame) {
	pkt, ok := f.Payload.(*Packet)
	if !ok {
		return
	}
	if pkt.Kind == KindHello {
		w.helloFree = append(w.helloFree, pkt)
	} else if pkt.final {
		w.putPacket(pkt)
	}
}

// Engine exposes the underlying engine (used by the harness for extra
// instrumentation events).
func (w *World) Engine() *sim.Engine { return w.eng }

// Collector returns the run's metrics collector.
func (w *World) Collector() *metrics.Collector { return w.col }

// Channel returns the propagation model in use.
func (w *World) Channel() channel.Model { return w.ch }

// Nodes returns the number of nodes.
func (w *World) Nodes() int { return len(w.nodes) }

// NodeIDs returns all node IDs of the given kind.
func (w *World) NodeIDs(kind NodeKind) []NodeID {
	var out []NodeID
	for _, n := range w.nodes {
		if n.kind == kind {
			out = append(out, n.id)
		}
	}
	return out
}

func (w *World) nodeByID(id NodeID) *node {
	if id < 0 || int(id) >= len(w.nodes) {
		return nil
	}
	return w.nodes[id]
}

// PositionOf returns the current true position of a node (harness
// instrumentation; protocols should use beacons or LookupPosition). A
// node whose vehicle left the world has no position.
func (w *World) PositionOf(id NodeID) (geom.Vec2, bool) {
	n := w.nodeByID(id)
	if n == nil || n.left {
		return geom.Vec2{}, false
	}
	return n.pos, true
}

// VelocityOf returns the current true velocity of a node.
func (w *World) VelocityOf(id NodeID) (geom.Vec2, bool) {
	n := w.nodeByID(id)
	if n == nil || n.left {
		return geom.Vec2{}, false
	}
	return n.vel, true
}

// KindOf returns the node kind.
func (w *World) KindOf(id NodeID) (NodeKind, bool) {
	n := w.nodeByID(id)
	if n == nil {
		return 0, false
	}
	return n.kind, true
}

// AddVehicleNodes creates one node per vehicle currently in the mobility
// model, attaching a fresh router from the factory. Buses become BusNode
// kind. It returns the created node IDs in vehicle order.
func (w *World) AddVehicleNodes(factory RouterFactory) []NodeID {
	states := w.model.States()
	ids := make([]NodeID, 0, len(states))
	for _, s := range states {
		kind := Vehicle
		if s.Class == mobility.Bus {
			kind = BusNode
		}
		id := w.addNode(kind, s.Pos, s.Vel, factory(), s.ID)
		ids = append(ids, id)
	}
	return ids
}

// AddStaticNode creates a fixed node (e.g. an RSU) at pos.
func (w *World) AddStaticNode(kind NodeKind, pos geom.Vec2, r Router) NodeID {
	return w.addNode(kind, pos, geom.Vec2{}, r, -1)
}

func (w *World) addNode(kind NodeKind, pos, vel geom.Vec2, r Router, vehID mobility.VehicleID) NodeID {
	id := NodeID(len(w.nodes))
	n := &node{
		id: id, kind: kind, router: r,
		mon: *linkstate.NewMonitor(w.cfg.neighborTTL(), w.ch.MeanRange(), w.est),
		pos: pos, vel: vel,
		rngSeed: w.eng.RandSeed(),
		vehID:   vehID,
		active:  true,
	}
	w.nodes = append(w.nodes, n)
	w.markActive(n)
	if vehID >= 0 {
		for int(vehID) >= len(w.byVeh) {
			w.byVeh = append(w.byVeh, nil)
		}
		w.byVeh[vehID] = n
	}
	n.heard, _ = r.(BeaconListener)
	w.grid.Update(int32(id), pos)
	r.Attach(&API{world: w, node: n})
	return id
}

// markActive inserts n into the sorted active slice (no-op if present).
// New nodes always carry the highest ID, so the common case appends.
func (w *World) markActive(n *node) {
	i := sort.Search(len(w.actives), func(i int) bool { return w.actives[i].id >= n.id })
	if i < len(w.actives) && w.actives[i] == n {
		return
	}
	w.actives = append(w.actives, nil)
	copy(w.actives[i+1:], w.actives[i:])
	w.actives[i] = n
}

// markInactive removes n from the sorted active slice (no-op if absent).
func (w *World) markInactive(n *node) {
	i := sort.Search(len(w.actives), func(i int) bool { return w.actives[i].id >= n.id })
	if i >= len(w.actives) || w.actives[i] != n {
		return
	}
	w.actives = append(w.actives[:i], w.actives[i+1:]...)
}

// SetJoinFactory switches the world to open-world membership: vehicles
// that appear in the mobility model after the run started are given a
// node running a fresh router from factory (joining mid-run, with their
// own beacon ticker when beaconing is armed), and vehicles that disappear
// from the model have their node leave — removed from the spatial index
// and silenced, so the radio cache, neighbor tables, and flows observe
// the departure instead of a parked phantom. Call before Run.
func (w *World) SetJoinFactory(factory RouterFactory) {
	w.joinFactory = factory
}

// Joins returns how many nodes joined the world mid-run.
func (w *World) Joins() int { return w.joins }

// Leaves returns how many nodes left the world mid-run.
func (w *World) Leaves() int { return w.leaves }

// ActiveNodes returns the number of currently active nodes (joined, not
// departed, not failure-injected).
func (w *World) ActiveNodes() int { return len(w.actives) }

// SetNodeActive enables or disables a node (failure injection). Disabled
// nodes neither transmit nor receive and vanish from the spatial index.
func (w *World) SetNodeActive(id NodeID, active bool) {
	n := w.nodeByID(id)
	if n == nil || n.active == active {
		return
	}
	n.active = active
	if active {
		w.markActive(n)
		w.grid.Update(int32(id), n.pos)
	} else {
		w.markInactive(n)
		w.grid.Remove(int32(id))
	}
}

// AddFlow schedules a constant-bit-rate application flow: count packets of
// size bytes from src to dst, one every interval seconds starting at start.
func (w *World) AddFlow(src, dst NodeID, start, interval float64, count, size int) {
	if count <= 0 {
		return
	}
	for i := 0; i < count; i++ {
		at := start + float64(i)*interval
		w.eng.At(at, func() {
			n := w.nodeByID(src)
			if n == nil || !n.active {
				return
			}
			w.col.OnDataSent()
			if w.faultWindow != nil && w.faultWindow(w.eng.Now()) {
				w.col.DataSentFault++
			}
			n.router.Originate(dst, size)
		})
	}
}

// AddVehicleFlow schedules a CBR flow addressed by mobility vehicle IDs
// instead of node IDs, resolving both endpoints at each packet's send
// time. This is the flow primitive for open worlds: the endpoints may
// not have joined yet when the flow is wired (a trace whose tracks start
// mid-run), and packets are only originated while the source is an
// active member and the destination has a known node.
func (w *World) AddVehicleFlow(src, dst mobility.VehicleID, start, interval float64, count, size int) {
	if count <= 0 {
		return
	}
	for i := 0; i < count; i++ {
		at := start + float64(i)*interval
		w.eng.At(at, func() {
			sn := w.vehicleNode(src)
			dn := w.vehicleNode(dst)
			if sn == nil || !sn.active || dn == nil {
				return
			}
			w.col.OnDataSent()
			if w.faultWindow != nil && w.faultWindow(w.eng.Now()) {
				w.col.DataSentFault++
			}
			sn.router.Originate(dn.id, size)
		})
	}
}

// vehicleNode maps a mobility vehicle ID to its node, nil if the vehicle
// never joined.
func (w *World) vehicleNode(id mobility.VehicleID) *node {
	if id < 0 || int(id) >= len(w.byVeh) {
		return nil
	}
	return w.byVeh[id]
}

// Run executes the simulation for duration seconds. It is equivalent to
// StartRun, AdvanceTo(duration), CompleteRun — the segmented form the
// checkpoint plane drives so it can snapshot at event-free boundaries; a
// single Run(d) and any sequence of AdvanceTo calls ending at d execute
// the identical event sequence.
func (w *World) Run(duration float64) error {
	w.StartRun()
	if err := w.AdvanceTo(duration); err != nil {
		return err
	}
	w.CompleteRun()
	return nil
}

// StartRun arms the run's periodic machinery — the mobility tick, per-node
// beaconing and the location-service refresh — without executing any
// events. Calling it more than once is a no-op, so segmented drivers need
// no state of their own.
func (w *World) StartRun() {
	if w.started {
		return
	}
	w.started = true
	needBeacons := false
	for _, n := range w.nodes {
		if n.router.NeedsBeacons() {
			needBeacons = true
			break
		}
	}
	if !needBeacons && w.joinFactory != nil && len(w.nodes) == 0 {
		// an open world may start empty (a trace whose first track begins
		// after t=0); probe a throwaway router so joiners still get beacons
		needBeacons = w.joinFactory().NeedsBeacons()
	}
	// mobility + housekeeping tick
	tick := w.cfg.tick()
	w.eng.Ticker(0, tick, 0, nil, func() { w.step(tick) })
	// per-node beaconing with phase jitter
	w.beaconing = needBeacons
	if needBeacons {
		for _, n := range w.nodes {
			w.startBeacon(n)
		}
	}
	// location service refresh
	staleness := w.cfg.LocationStaleness
	if staleness <= 0 {
		staleness = 1.0
	}
	w.eng.Ticker(0, staleness, 0, nil, w.refreshLocations)
}

// AdvanceTo runs the engine until the simulation clock reaches t (events
// at exactly t still fire). Repeated calls with increasing t execute the
// identical event sequence as one call with the final t — the property
// that makes checkpoint boundaries unobservable. StartRun must have run.
func (w *World) AdvanceTo(t float64) error {
	if err := w.eng.Run(t); err != nil {
		return fmt.Errorf("netstack: run: %w", err)
	}
	return nil
}

// CompleteRun finalizes end-of-run accounting (censoring the link audit's
// still-open samples). Call once, after the final AdvanceTo.
func (w *World) CompleteRun() { w.finishAudit() }

// EndRun is a no-op: a world owns no goroutines or other resources to
// release. It remains because the segmented drivers (the checkpoint plane
// and bench/) pair every StartRun with it.
func (w *World) EndRun() {}

// step advances mobility and refreshes node kinematics and the spatial
// index. The grid updates below advance the grid epoch, which is what
// invalidates every cached radio neighborhood: transmissions after this
// tick rebuild (lazily, per transmitter) against the new positions, and
// every transmission until the next tick reuses them.
//
// The same snapshot drives open-world membership: a state whose vehicle
// has no node joins (when a join factory is set), and a vehicle node the
// snapshot no longer contains leaves. Closed worlds never hit either
// path, so the bookkeeping is two integer stamps per vehicle per tick.
func (w *World) step(dt float64) {
	w.stepSeq++
	w.stateBuf = w.model.StatesInto(w.stateBuf[:0])
	// Kinematics, in stateBuf order: write each node's pos/vel and move it
	// in the grid. Position-only movement is staged and the epoch advanced
	// once for the whole tick below — the radio cache and the kinematic
	// memo see a single geometry change per tick instead of one per moved
	// vehicle. Joins, re-entries and inserts bump the epoch themselves
	// (they change membership, not just positions).
	changed := false
	for i := range w.stateBuf {
		s := &w.stateBuf[i]
		var n *node
		if int(s.ID) < len(w.byVeh) {
			n = w.byVeh[s.ID]
		}
		if n == nil {
			if w.joinFactory != nil {
				w.joinVehicle(s)
			}
			continue
		}
		n.seenStep = w.stepSeq
		if n.left {
			// the vehicle re-entered the world (e.g. a gap in its trace)
			n.left = false
			n.active = true
			w.markActive(n)
			w.joins++
			w.col.NodeJoins++
			n.pos = s.Pos
			n.vel = s.Vel
			w.grid.Update(int32(n.id), n.pos)
			continue
		}
		n.pos = s.Pos
		n.vel = s.Vel
		if !n.active {
			continue
		}
		moved, mv, cross, ok := w.grid.Stage(int32(n.id), n.pos)
		if !ok {
			w.grid.Update(int32(n.id), n.pos)
			continue
		}
		changed = changed || moved
		if cross {
			w.grid.Commit(mv)
		}
	}
	if changed {
		w.grid.AdvanceEpoch()
	}
	w.model.Advance(dt)
	// departure sweep — only in open worlds (SetJoinFactory): an active
	// vehicle node absent from this step's snapshot left the mobility
	// model (trace window closed, lifetime expired, drove off the map).
	// Worlds that never opted into open membership keep the legacy
	// fixed-population behaviour and report zero joins/leaves. leaveNode
	// splices n out of w.actives, so the index only advances past nodes
	// that stay.
	if w.joinFactory != nil {
		for i := 0; i < len(w.actives); {
			if n := w.actives[i]; n.vehID >= 0 && n.seenStep != w.stepSeq {
				w.leaveNode(n)
				continue
			}
			i++
		}
	}
	// Neighbor expiry sweep over the active slice, in node-ID order. The
	// router callbacks may transmit but never change membership, so
	// w.actives is stable under the loop.
	now := w.eng.Now()
	for _, n := range w.actives {
		for _, gone := range n.mon.Expire(now) {
			n.router.OnNeighborExpired(gone)
		}
	}
	if w.audit != nil {
		w.auditStep(now)
	}
	// Radio rebuild: when enough of the population transmitted during
	// the previous epoch that the lazy per-transmitter rebuilds would
	// dominate the event path anyway, rebuild every neighborhood here —
	// the symmetric cell-pair sweep over the grid's CSR snapshot — while
	// the geometry is final for the tick. Pure prefetch — identical lists,
	// identical outputs; sparse-demand worlds stay on the lazy per-node
	// path. The sweep runs inline: the pool parameter survives only because
	// bench/ calls RebuildSweep by that signature (ROADMAP item 5).
	if w.links.SweepWorthwhile(len(w.actives)) {
		w.links.RebuildSweep(par.Seq)
	}
}

// Digester is implemented by subsystems that can fold their logical state
// into a checkpoint digest. Mobility models implement it optionally; the
// world skips models that don't.
type Digester interface {
	DigestInto(d *digest.Writer)
}

// streamSource is implemented by subsystems that own serializable RNG
// streams (the road mobility model's per-vehicle streams).
type streamSource interface {
	AppendStreamStates(dst []prng.State) []prng.State
}

// DigestInto folds the world's complete checkpoint-relevant state into d,
// layer by layer in a fixed order: engine (clock, event queue, stream
// positions), spatial grid, mobility model, MAC, every node (kinematics,
// membership flags, RNG position, link-state monitor) in ID order, the
// membership and location-service planes, the metrics collector, the link
// audit, and every registered external stream.
//
// Excluded by design: the radio cache (pure memoization), the packet free
// lists, and stateBuf — all process-local scratch that a restored world
// re-derives. The result is identical across processes and worker counts
// for the same event history.
func (w *World) DigestInto(d *digest.Writer) {
	w.eng.DigestInto(d)
	w.grid.DigestInto(d)
	if dg, ok := w.model.(Digester); ok {
		d.Bool(true)
		dg.DigestInto(d)
	} else {
		d.Bool(false)
	}
	w.mac.DigestInto(d)
	d.Int(len(w.nodes))
	for _, n := range w.nodes {
		d.U32(uint32(n.id))
		d.Int(int(n.kind))
		d.F64(n.pos.X)
		d.F64(n.pos.Y)
		d.F64(n.vel.X)
		d.F64(n.vel.Y)
		d.I64(n.rngSeed)
		if n.rngSrc != nil {
			d.U64(n.rngSrc.Draws())
		} else {
			d.U64(0)
		}
		d.U32(uint32(n.vehID))
		d.Bool(n.active)
		d.Bool(n.left)
		d.U64(n.seenStep)
		n.mon.DigestInto(d)
	}
	d.U64(w.uid)
	d.U64(w.stepSeq)
	d.Int(w.joins)
	d.Int(w.leaves)
	d.Bool(w.beaconing)
	d.Int(len(w.actives))
	for _, n := range w.actives {
		d.U32(uint32(n.id))
	}
	d.Int(len(w.locPos))
	for i := range w.locPos {
		d.F64(w.locPos[i].X)
		d.F64(w.locPos[i].Y)
		d.F64(w.locVel[i].X)
		d.F64(w.locVel[i].Y)
		d.Bool(w.locOK[i])
	}
	w.col.DigestInto(d)
	if w.audit != nil {
		d.Bool(true)
		w.audit.digestInto(d)
	} else {
		d.Bool(false)
	}
	d.Int(len(w.extStreams))
	for _, s := range w.extStreams {
		d.Str(s.name)
		d.I64(s.src.SeedValue())
		d.U64(s.src.Draws())
	}
}

// Digest returns the world's state digest (DigestInto through a fresh
// writer) — the value checkpoints store and restores verify.
func (w *World) Digest() uint64 {
	d := digest.New()
	w.DigestInto(d)
	return d.Sum()
}

// AppendStreamStates appends the (owner, seed, draw position) of every
// RNG stream the run consumes — the engine's, each node's private stream,
// the mobility model's per-vehicle streams, and every registered external
// stream — to dst. The checkpoint snapshot records the table; restore
// verifies a fast-forwarded world reproduces it exactly.
func (w *World) AppendStreamStates(dst []prng.State) []prng.State {
	dst = w.eng.AppendStreamStates(dst)
	for _, n := range w.nodes {
		if n.rngSrc == nil {
			continue
		}
		dst = append(dst, prng.StateOf(fmt.Sprintf("node%d", n.id), n.rngSrc))
	}
	if ss, ok := w.model.(streamSource); ok {
		dst = ss.AppendStreamStates(dst)
	}
	for _, s := range w.extStreams {
		dst = append(dst, prng.StateOf(s.name, s.src))
	}
	return dst
}

// observer packages a node's current kinematics for the reliability
// plane: the mobility epoch (the spatial grid's) keys the kinematic
// lifetime memo, since node positions only move when the grid does.
func (w *World) observer(n *node) linkstate.Observer {
	return linkstate.Observer{Pos: n.pos, Vel: n.vel, Now: w.eng.Now(), Epoch: w.grid.Epoch()}
}

// joinVehicle creates a node for a vehicle that entered the mobility model
// mid-run, attaching a fresh router from the join factory and arming its
// beacon ticker when the run beacons.
func (w *World) joinVehicle(s *mobility.State) {
	kind := Vehicle
	if s.Class == mobility.Bus {
		kind = BusNode
	}
	id := w.addNode(kind, s.Pos, s.Vel, w.joinFactory(), s.ID)
	n := w.nodes[id]
	n.seenStep = w.stepSeq
	w.joins++
	w.col.NodeJoins++
	if w.beaconing {
		w.startBeacon(n)
	}
}

// leaveNode removes a departed vehicle's node from the world: it vanishes
// from the spatial index (advancing the grid epoch, so every cached radio
// neighborhood drops it) and neither transmits nor receives. Neighbor
// entries pointing at it expire through the normal TTL sweep, surfacing
// OnNeighborExpired to the protocols exactly like any other link break.
func (w *World) leaveNode(n *node) {
	n.left = true
	n.active = false
	w.markInactive(n)
	w.grid.Remove(int32(n.id))
	w.leaves++
	w.col.NodeLeaves++
}

func (w *World) refreshLocations() {
	for len(w.locPos) < len(w.nodes) {
		w.locPos = append(w.locPos, geom.Vec2{})
		w.locVel = append(w.locVel, geom.Vec2{})
		w.locOK = append(w.locOK, false)
	}
	for _, n := range w.nodes {
		w.locPos[n.id] = n.pos
		w.locVel[n.id] = n.vel
		// departed vehicles — and crashed nodes, whose radios are dark —
		// age out of the directory at the next refresh instead of
		// haunting it at their last position forever
		w.locOK[n.id] = !n.left && n.active
	}
}

func (w *World) lookupPosition(dst NodeID) (geom.Vec2, geom.Vec2, bool) {
	if int(dst) >= len(w.locOK) || dst < 0 || !w.locOK[dst] {
		n := w.nodeByID(dst)
		if n == nil || n.left || !n.active {
			return geom.Vec2{}, geom.Vec2{}, false
		}
		return n.pos, n.vel, true
	}
	return w.locPos[dst], w.locVel[dst], true
}

// startBeacon arms one node's HELLO ticker with a random phase and per-
// period jitter, drawn from the node's private stream so beacon phases
// never perturb any other component's randomness. The phase is relative
// to now: for the t=0 population that is the classic absolute phase, and
// for mid-run joiners it keeps their first beacons desynchronized
// instead of clamping them all onto the join tick's timestamp.
func (w *World) startBeacon(n *node) {
	phase := n.random().Float64() * w.cfg.beaconInterval()
	w.eng.Ticker(w.eng.Now()+phase, w.cfg.beaconInterval(), 0.1, n.random(), func() {
		w.sendBeacon(n)
	})
}

// sendBeacon broadcasts a HELLO for node n. Beacon packets (and their
// boxed payload) are recycled through helloFree once the MAC reports the
// frame's lifecycle complete — beacons never reach routers, so the stack
// is their only owner.
func (w *World) sendBeacon(n *node) {
	if !n.active {
		return
	}
	if w.beaconFilter != nil && w.beaconFilter(n.id, n.random()) {
		return // suppressed by a fault window; the draw stays on n's stream
	}
	var pkt *Packet
	if k := len(w.helloFree); k > 0 {
		pkt = w.helloFree[k-1]
		w.helloFree = w.helloFree[:k-1]
	} else {
		pkt = &Packet{Payload: new(beacon)}
	}
	b := pkt.Payload.(*beacon)
	b.kind, b.pos, b.vel = n.kind, n.pos, n.vel
	*pkt = Packet{
		UID:  0, // beacons are unnumbered
		Kind: KindHello, Proto: "hello",
		Src: n.id, Dst: Broadcast, From: n.id, To: Broadcast,
		TTL: 1, Size: w.cfg.beaconSize(), Created: w.eng.Now(),
		Payload: b,
	}
	w.col.OnControl(KindHello, pkt.Size)
	if w.faultWindow != nil && w.faultWindow(w.eng.Now()) {
		w.col.ControlFault++
	}
	w.mac.Send(mac.Frame{From: int32(n.id), To: mac.Broadcast, Size: pkt.Size, Payload: pkt})
}

// sendFrame is API.Send and API.SendFinal: it stamps link addresses,
// charges metrics, and hands the packet to the MAC. final marks a packet
// the router gave up for good: frameDone recycles it when the MAC is done
// with the frame, and a sender that cannot transmit recycles it here.
func (w *World) sendFrame(n *node, to NodeID, pkt *Packet, final bool) {
	if !n.active {
		if final {
			w.putPacket(pkt)
		}
		return
	}
	pkt.final = final
	pkt.From = n.id
	pkt.To = to
	if pkt.Data {
		w.col.DataForwarded++
		w.col.DataBytes += pkt.Size
	} else {
		w.col.OnControl(pkt.Kind, pkt.Size)
		if w.faultWindow != nil && w.faultWindow(w.eng.Now()) {
			w.col.ControlFault++
		}
	}
	macTo := mac.Broadcast
	if to != Broadcast {
		macTo = int32(to)
	}
	w.mac.Send(mac.Frame{From: int32(n.id), To: macTo, Size: pkt.Size, Payload: pkt})
}

// txFailed is the MAC failure upcall: surface exhausted unicast ARQ to the
// sending router as a link-failure indication.
func (w *World) txFailed(from int32, f mac.Frame) {
	n := w.nodeByID(NodeID(from))
	if n == nil || !n.active {
		return
	}
	pkt, ok := f.Payload.(*Packet)
	if !ok || pkt.Kind == KindHello {
		return
	}
	// feed the reliability plane before the router reacts (the router may
	// ForgetNeighbor, discarding the entry the evidence belongs to)
	n.mon.RecordSendFailed(NodeID(f.To))
	n.router.OnSendFailed(pkt.Clone(), NodeID(f.To))
}

// dispatch is the MAC upcall: filter by link destination, consume beacons,
// clone per receiver, and hand to the router.
func (w *World) dispatch(to int32, f mac.Frame) {
	n := w.nodeByID(NodeID(to))
	if n == nil || !n.active {
		return
	}
	pkt, ok := f.Payload.(*Packet)
	if !ok {
		return
	}
	if pkt.To != Broadcast && pkt.To != n.id {
		return // unicast not for us; no promiscuous data path
	}
	if pkt.Kind == KindHello {
		b, ok := pkt.Payload.(*beacon)
		if !ok {
			return
		}
		d := n.pos.Dist(b.pos)
		rssi := w.ch.RSSI(d, n.random())
		n.mon.Update(pkt.From, b.kind, b.pos, b.vel, rssi, w.eng.Now())
		if n.heard != nil {
			n.heard.OnBeacon(pkt.From, b.kind)
		}
		if w.faultBeaconHeard != nil {
			// someone heard pkt.From beaconing — the fault plane closes
			// its recovery-latency clock for that node, if one is open
			w.faultBeaconHeard(pkt.From)
		}
		return
	}
	// a decoded non-beacon frame is positive link feedback for the
	// reliability plane (no-op until the sender has been heard beaconing)
	n.mon.RecordReceived(pkt.From)
	// Hand the router its own mutable copy, drawn from the pool; the
	// router owns it and may hand it back via API.Release when its
	// journey provably ends.
	cp := w.getPacket()
	*cp = *pkt
	cp.final = false // the mark belongs to the sender's packet, not the copies
	cp.Hops++
	n.router.HandlePacket(cp)
}
