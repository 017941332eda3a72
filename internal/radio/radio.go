// Package radio caches per-mobility-epoch link state between the spatial
// index and the channel model: for every transmitter, the candidate
// receiver list with precomputed distances. What the channel makes of a
// distance — a comparison for the unit disk, a table lookup and a draw for
// shadowing — is cheap enough to run per frame, so nothing of it is cached.
//
// The MAC's transmit path used to be an O(candidates) grid scan per frame;
// with beacon storms every node transmits every interval, making that the
// dominant cost at city density. Positions only change at
// mobility-tick boundaries (plus node join/leave), so all of it is a pure
// function of the grid's epoch. The cache memoizes neighborhoods per epoch
// and reuses them — one comparison against spatial.Grid.Epoch — for every
// subsequent frame until the world moves again.
//
// Two build paths fill the same hoods:
//
//   - Lazy (Links): one node's neighborhood on first use in an epoch, by
//     walking the grid's 3×3 cell stencil around the transmitter. Right
//     when only a sparse subset of the population transmits per epoch —
//     flooding bursts, idle worlds — because untransmitting nodes never
//     pay anything.
//
//   - Eager sweep (RebuildSweep): every neighborhood in one symmetric pass
//     over the grid's CSR snapshot (spatial.Snapshot — occupied cells
//     sorted by (CX, CY), members packed contiguously). The sweep
//     enumerates each unordered in-range cell pair once, computes each
//     in-range pair's distance once, and writes the link into both
//     endpoints' hoods — half the pair math of n per-node stencil walks,
//     over contiguous arrays instead of per-cell map probes. Pair
//     discovery shards over cell stripes through the pool
//     RebuildSweep is handed (the simulator always hands it the inline
//     one); a serial scatter then fills the hoods. Right when most of the
//     population transmits every epoch — beaconing protocols at any
//     density. The world picks per epoch via SweepWorthwhile.
//
// Order reconstruction: Links must list candidates in exactly the order
// spatial.Grid.Within returns them — ascending (cx, cy) cell rank, then
// cell list order — because golden outputs consume links in list order.
// A transmitter's stencil covers every in-range cell, so that order is the
// restriction of one global total order (CSR cell rank, then in-cell
// position) to the in-range subset, independent of the transmitter. The
// sweep exploits this: enumerating cell pairs (a, b) with a ≤ b in rank
// order — in-cell pairs i < j first, then forward cells by rank — and
// scattering per-shard pair buffers in shard order appends every link in
// exactly that global order, so each hood comes out byte-identical to a
// lazy build. Distances are bitwise symmetric (math.Hypot of negated
// differences), so one computation serves both directions.
//
// Determinism contract: both paths produce identical link lists, with
// distances computed by the same expression the uncached MAC used, and
// the reception decision is the channel's own Decodable at that distance.
// A cached transmit — lazy or swept — is therefore byte-identical to an
// uncached one at every shard count; the golden-file and sweep property
// tests pin this.
//
// The cache is shared: the netstack world owns invalidation (its mobility
// step's grid updates advance the epoch; join/leave and failure injection
// advance it incrementally), the MAC consumes Links for every frame, and
// beaconing rides the same cached neighborhoods since beacons are ordinary
// MAC broadcasts.
//
// Checkpoint contract: the cache is pure memoization — every entry is a
// function of the grid epoch and node positions, and which entries are
// populated can differ by build path. It is therefore
// excluded from the world's state digest and never serialized; a restored
// world starts with a cold cache and repopulates it on first transmit or
// first sweep, byte-identically.
package radio

import (
	"math"
	"math/rand"

	"github.com/vanetlab/relroute/internal/channel"
	"github.com/vanetlab/relroute/internal/par"
	"github.com/vanetlab/relroute/internal/spatial"
)

// Link is one cached candidate receiver of a node's transmissions.
type Link struct {
	To   int32   // receiver node ID
	Dist float64 // meters at the epoch the neighborhood was built
}

// Cache memoizes candidate receiver lists per transmitter. It is built
// over a Grid and a channel Model once per world; the zero value is not
// usable. Not safe for concurrent use — like every per-world structure,
// it belongs to the single-threaded simulation engine (RebuildSweep fans
// out internally over disjoint state).
type Cache struct {
	grid   *spatial.Grid
	model  channel.Model
	hoods  []hood // dense, keyed by node ID
	builds uint64 // rebuild counter (instrumentation/tests)

	// usage accounting for the eager-sweep heuristic: how many distinct
	// transmitters requested their neighborhood during the current and the
	// previous grid epoch. Requests ride the serial transmit path, so the
	// counts are deterministic.
	reqEpoch uint64
	reqCount int
	prevReq  int

	mode       EagerMode
	sweepEpoch uint64 // last epoch RebuildSweep ran; repeat sweeps are no-ops

	// sweep holds the per-shard pair arenas: each shard discovers pairs in
	// its own cell stripe into its own buffers, sharing nothing but the
	// read-only snapshot, and the serial scatter drains them in shard
	// order. Backing arrays persist across epochs so steady-state sweeps
	// do not allocate.
	sweep []sweepShard
}

// sweepShard is one shard's pair buffer: parallel arrays of endpoint node
// IDs and pair distance.
type sweepShard struct {
	a, b []int32
	d    []float64
}

// hood is one node's cached neighborhood. epoch 0 means never built
// (grid epochs are 1-based); req is the last epoch the node requested it
// (usage accounting, distinct from having it built eagerly).
type hood struct {
	links []Link
	epoch uint64
	req   uint64
}

// EagerMode overrides the sweep-vs-lazy policy; see SetEagerMode.
type EagerMode int

const (
	// EagerAuto (the default) weighs previous-epoch demand against the
	// population size; see SweepWorthwhile.
	EagerAuto EagerMode = iota
	// EagerAlways sweeps every epoch regardless of demand.
	EagerAlways
	// EagerNever builds every neighborhood lazily.
	EagerNever
)

// NewCache returns a cache over the given index and propagation model.
func NewCache(grid *spatial.Grid, model channel.Model) *Cache {
	return &Cache{grid: grid, model: model}
}

// SetEagerMode forces the sweep-vs-lazy decision. Both paths build
// identical neighborhoods, so the mode never changes simulation output —
// only where the rebuild cost is paid. Tests use it to drive full runs
// down one path; production worlds leave EagerAuto.
func (c *Cache) SetEagerMode(m EagerMode) { c.mode = m }

// Links returns the candidate receiver list for a transmission from id,
// rebuilding it only if the grid changed since it was last built. A node
// the grid does not track (left, failed, never joined) gets an empty list.
// The returned slice is owned by the cache: it is valid until the next
// Links call for the same id after a grid change, and must not be retained
// or mutated.
func (c *Cache) Links(id int32) []Link {
	if id < 0 {
		return nil
	}
	for int(id) >= len(c.hoods) {
		c.hoods = append(c.hoods, hood{})
	}
	h := &c.hoods[id]
	e := c.grid.Epoch()
	if h.req != e {
		if e != c.reqEpoch {
			c.prevReq, c.reqCount, c.reqEpoch = c.reqCount, 0, e
		}
		h.req = e
		c.reqCount++
	}
	if h.epoch != e {
		c.builds++
		c.rebuildInto(id, h)
		h.epoch = e
	}
	return h.links
}

// rebuildInto recomputes one node's neighborhood by walking the same cell
// stencil Grid.Within covers, in the same order. Each stencil cell is looked
// up once: the counting pass keeps the non-empty member lists, which sizes
// the link slice exactly (one allocation per growth instead of an
// append-doubling chain on every cold rebuild), and the fill pass walks the
// kept lists, reading each candidate's position once.
func (c *Cache) rebuildInto(id int32, h *hood) {
	h.links = h.links[:0]
	pos, ok := c.grid.Position(id)
	if !ok {
		return
	}
	r := c.model.MaxRange()
	r2 := r * r
	minCX, minCY, maxCX, maxCY := c.grid.CellBounds(pos, r)
	// The world's grid cell is the radio range, so the stencil is 3×3 and
	// the lists stay on the stack; a finer grid spills to the heap.
	var stencil [9][]int32
	lists := stencil[:0]
	total := 0
	for cx := minCX; cx <= maxCX; cx++ {
		for cy := minCY; cy <= maxCY; cy++ {
			if l := c.grid.CellList(cx, cy); len(l) > 0 {
				lists = append(lists, l)
				total += len(l)
			}
		}
	}
	// total counts the transmitter itself and out-of-range candidates, so
	// total-1 is a tight upper bound on the neighborhood size.
	if total > 1 && cap(h.links) < total-1 {
		h.links = make([]Link, 0, total-1)
	}
	for _, l := range lists {
		for _, rx := range l {
			if rx == id {
				continue
			}
			// Cell members are always indexed, so the unchecked read is
			// safe.
			rxPos := c.grid.At(rx)
			if rxPos.DistSq(pos) > r2 {
				continue
			}
			h.links = append(h.links, Link{To: rx, Dist: rxPos.Dist(pos)})
		}
	}
}

// PrevEpochUse returns how many distinct transmitters requested their
// neighborhood during the previous grid epoch — the demand signal the
// world's eager-sweep heuristic weighs against the cost of rebuilding
// every neighborhood at once.
func (c *Cache) PrevEpochUse() int { return c.prevReq }

// SweepWorthwhile reports whether the world should run RebuildSweep for
// the current epoch instead of letting neighborhoods build lazily, given
// the active population. The auto policy sweeps only at full saturation —
// every active transmitted last epoch — the one regime where halved pair
// math beats lazy even though demand is a one-epoch-stale predictor;
// bursty flooding and idle worlds stay lazy, where untransmitting nodes
// never pay anything.
func (c *Cache) SweepWorthwhile(actives int) bool {
	switch c.mode {
	case EagerAlways:
		return actives > 0
	case EagerNever:
		return false
	}
	return actives > 0 && c.prevReq >= actives
}

// RebuildSweep eagerly rebuilds every grid member's neighborhood for the
// current epoch in one symmetric pass over the CSR snapshot: each
// unordered pair of in-range cells is visited by exactly one shard (the
// one owning the lower-ranked cell), each in-range node pair's distance
// is computed once, and the serial scatter appends the
// link into both endpoints' hoods. Scattering the per-shard buffers in
// shard order replays the exact serial enumeration order, which in turn
// reproduces Grid.Within's candidate order in every hood (see the package
// comment), so the sweep is a pure prefetch: transmissions — and with
// them every golden output — are unaffected at any shard count. Nodes the
// grid does not track are left to the lazy path, which rebuilds them
// empty on first use.
//
// The pool parameter, the per-shard arenas and internal/par survive only
// because bench/replay.go calls RebuildSweep with the inline pool by name,
// as the simulator's one call site does. ROADMAP item 5's benchmark PR
// folds them to one buffer.
func (c *Cache) RebuildSweep(pool *par.Pool) {
	e := c.grid.Epoch()
	if c.sweepEpoch == e {
		return // the epoch's geometry is already swept; hoods are fresh
	}
	snap := c.grid.Snapshot()
	if len(snap.IDs) == 0 {
		return
	}
	c.sweepEpoch = e
	maxID := int32(-1)
	for _, id := range snap.IDs {
		if id > maxID {
			maxID = id
		}
	}
	for int(maxID) >= len(c.hoods) {
		c.hoods = append(c.hoods, hood{})
	}
	for _, id := range snap.IDs {
		h := &c.hoods[id]
		h.links = h.links[:0]
		h.epoch = e
	}
	n := pool.Shards()
	for len(c.sweep) < n {
		c.sweep = append(c.sweep, sweepShard{})
	}
	r := c.model.MaxRange()
	r2 := r * r
	reach := int32(math.Ceil(r / c.grid.CellSize()))
	cells := snap.Cells
	pool.Run(func(shard int) {
		sh := &c.sweep[shard]
		sh.a, sh.b, sh.d = sh.a[:0], sh.b[:0], sh.d[:0]
		lo, hi := pool.Range(len(cells), shard)
		for ai := lo; ai < hi; ai++ {
			ca := cells[ai]
			// in-cell pairs, i < j in list order
			for i := ca.Start; i < ca.End; i++ {
				pi := snap.Pos[i]
				for j := i + 1; j < ca.End; j++ {
					if snap.Pos[j].DistSq(pi) <= r2 {
						sh.a = append(sh.a, snap.IDs[i])
						sh.b = append(sh.b, snap.IDs[j])
						sh.d = append(sh.d, snap.Pos[j].Dist(pi))
					}
				}
			}
			// forward cells in the same row: contiguous right after ai
			for bi := ai + 1; bi < len(cells) && cells[bi].CX == ca.CX && cells[bi].CY <= ca.CY+reach; bi++ {
				sh.pairCells(snap, ca, cells[bi], r2)
			}
			// forward rows: binary-search each row's window start
			for dcx := int32(1); dcx <= reach; dcx++ {
				for bi := snap.Search(ca.CX+dcx, ca.CY-reach); bi < len(cells) && cells[bi].CX == ca.CX+dcx && cells[bi].CY <= ca.CY+reach; bi++ {
					sh.pairCells(snap, ca, cells[bi], r2)
				}
			}
		}
	})
	for s := 0; s < n; s++ {
		sh := &c.sweep[s]
		for k := range sh.a {
			i, j, d := sh.a[k], sh.b[k], sh.d[k]
			hi := &c.hoods[i]
			hi.links = append(hi.links, Link{To: j, Dist: d})
			hj := &c.hoods[j]
			hj.links = append(hj.links, Link{To: i, Dist: d})
		}
	}
	c.builds += uint64(len(snap.IDs))
}

// pairCells emits every in-range pair between two distinct cells: outer
// loop over ca's members, inner over cb's, so each hood receives its
// contributions from the other cell in that cell's list order.
func (sh *sweepShard) pairCells(snap *spatial.Snapshot, ca, cb spatial.CellSpan, r2 float64) {
	for i := ca.Start; i < ca.End; i++ {
		pi := snap.Pos[i]
		for j := cb.Start; j < cb.End; j++ {
			if snap.Pos[j].DistSq(pi) <= r2 {
				sh.a = append(sh.a, snap.IDs[i])
				sh.b = append(sh.b, snap.IDs[j])
				sh.d = append(sh.d, snap.Pos[j].Dist(pi))
			}
		}
	}
}

// Decodable decides reception over a cached link: Model.Decodable at the
// link's distance.
func (c *Cache) Decodable(lk Link, rng *rand.Rand) bool {
	return c.model.Decodable(lk.Dist, rng)
}

// Builds returns how many neighborhood rebuilds have run — the number of
// (node, epoch) pairs actually paid for, which tests compare against the
// transmission count to prove amortization.
func (c *Cache) Builds() uint64 { return c.builds }
