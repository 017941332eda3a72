package netstack

import (
	"math/rand"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/linkstate"
	"github.com/vanetlab/relroute/internal/mac"
	"github.com/vanetlab/relroute/internal/metrics"
	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/radio"
	"github.com/vanetlab/relroute/internal/sim"
	"github.com/vanetlab/relroute/internal/spatial"
)

// Config parameterises a World.
type Config struct {
	// Seed drives every random stream of the run.
	Seed int64
	// Channel is the propagation model. Nil means UnitDisk{250}.
	Channel channel.Model
	// Estimator selects the reliability plane's link-quality estimator by
	// registry name (see linkstate.Names). Empty means "composite": the
	// kinematic Eqn (4) lifetime plus the RSSI receipt model.
	Estimator string
}

// The stack's fixed timing and framing. Every scenario, experiment and
// benchmark runs on these values.
const (
	tickInterval      = 0.1                  // mobility and housekeeping step, s
	beaconInterval    = 1.0                  // HELLO period, s
	neighborTTL       = 2.5 * beaconInterval // a neighbor expires this long after its last beacon, s
	beaconSize        = 32                   // HELLO frame, bytes
	locationStaleness = 1.0                  // refresh period of the location service, s
)

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
// use: the checkpoint stream table lists a node's stream only once the
// node has taken it, so a node that never draws (no beacons to jitter, no
// shadowing RSSI) has no entry. The seed is drawn eagerly in addNode, so
// the root stream — and with it every other component's stream — is
// byte-identical whether or when this one materializes.
func (n *node) random() *rand.Rand {
	if n.rng == nil {
		n.rng, n.rngSrc = prng.Rand(n.rngSeed)
	}
	return n.rng
}

// World owns one simulation run: engine, mobility, radio stack, nodes,
// flows and metrics.
type World struct {
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

	// est is the estimator every node's Monitor predicts with
	// (Config.Estimator); tables is the store every node's Monitor carves
	// its entries and inbox from; audit is the opt-in ground-truth link
	// tracker.
	est    linkstate.Estimator
	tables linkstate.Store
	audit  *linkAudit

	// open-world membership (see SetJoinFactory): a non-nil joinFactory
	// makes the world open. stepSeq stamps each mobility step so leave
	// detection is one comparison per node; beaconing records whether
	// StartRun armed the HELLO substrate, so joiners get their own ticker.
	joinFactory RouterFactory
	stepSeq     uint64
	beaconing   bool
	joins       int
	leaves      int

	// idealised location service: last sampled kinematics, dense by node ID
	locPos []geom.Vec2
	locVel []geom.Vec2
	locOK  []bool

	// fault-plane hooks, nil unless a fault schedule installs them (see
	// faultplane.go)
	beaconFilter     func(NodeID, *rand.Rand) bool
	faultBeaconHeard func(NodeID)
	onFirstDelivery  func(created float64)
	faultWindow      func(now float64) bool

	// stateBuf is the reused mobility snapshot buffer for the tick loop,
	// expired the one expireNeighbors collects each table's expired IDs in.
	stateBuf []mobility.State
	expired  []NodeID

	// free lists, unsynchronised because the engine is single-threaded:
	// pktFree holds the per-receiver copies dispatch hands to routers
	// (frame.go), beaconFree the beacon records (beacon.go)
	pktFree    []*Packet
	beaconFree []*beacon

	// extStreams: see RegisterStream. started: StartRun has armed the
	// tickers; the segmented drivers (the checkpoint plane and bench/) call
	// it again.
	extStreams []namedStream
	started    bool

	// The world's periodic and delayed work as engine handlers, registered
	// once in NewWorld: the mobility tick and the location refresh
	// (argument unused), a node's beacon (argument: the node ID),
	// API.Every's jobs (argument: the index into every) and API.SendAfter's
	// sends (argument: the slot in delayed, whose free slots delayedFree
	// lists).
	stepH, locationsH, beaconH, everyH, delayedH sim.Handler
	every                                        []Periodic
	delayed                                      []delayedSend
	delayedFree                                  []int32
}

// NewWorld builds a world over the given mobility model. Call one of the
// node-population methods, then Run.
func NewWorld(cfg Config, model mobility.Model) *World {
	ch := cfg.Channel
	if ch == nil {
		ch = channel.UnitDisk{Range: 250}
	}
	cell := ch.MaxRange()
	if cell <= 0 {
		cell = 250
	}
	w := &World{
		eng:   sim.NewEngine(cfg.Seed),
		model: model,
		grid:  spatial.NewGrid(cell),
		ch:    ch,
		col:   metrics.NewCollector(),
	}
	// The reliability plane's estimator is shared by every node's Monitor.
	// Unknown names are a programmer error (scenario.Build validates user
	// input before it reaches here).
	w.est = linkstate.MustNew(cfg.Estimator, linkstate.Config{Range: ch.MeanRange()})
	// The radio link cache is the world's shared transmit fast path: the
	// MAC resolves every frame (data and beacons alike) against it, and the
	// world owns its invalidation — the grid epoch it keys on advances with
	// each mobility step's moves and each setActive.
	w.links = radio.NewCache(w.grid, ch)
	w.mac = mac.NewLayer(w.eng, w.links, mac.Config{}, w.col, w.dispatch, w.txFailed)
	w.mac.OnFrameDone(w.frameDone)
	w.stepH = w.eng.Handle(func(int32) { w.step() })
	w.locationsH = w.eng.Handle(func(int32) { w.refreshLocations() })
	w.beaconH = w.eng.Handle(func(id int32) { w.sendBeacon(w.nodes[id]) })
	w.everyH = w.eng.Handle(func(i int32) { w.every[i].Tick() })
	w.delayedH = w.eng.Handle(w.sendDelayed)
	return w
}

// Radio exposes the shared per-epoch link cache (harness instrumentation
// and tests; protocols must observe the world through beacons).
func (w *World) Radio() *radio.Cache { return w.links }

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

// observer packages a node's current kinematics for the reliability
// plane: the mobility epoch (the spatial grid's) keys the kinematic
// lifetime memo, since node positions only move when the grid does.
func (w *World) observer(n *node) linkstate.Observer {
	return linkstate.Observer{Pos: n.pos, Vel: n.vel, Now: w.eng.Now(), Epoch: w.grid.Epoch()}
}
