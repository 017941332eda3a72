package netstack

import (
	"fmt"

	"github.com/vanetlab/relroute/internal/digest"
	"github.com/vanetlab/relroute/internal/prng"
)

// namedStream is one entry of RegisterStream's table.
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

// Layer is one section of DigestInto, by name, with the digest of that
// section alone. The checkpoint trail records every layer at each of its
// boundaries, so a replay that diverges names the subsystems that moved.
type Layer struct {
	Name string `json:"name"`
	Sum  uint64 `json:"sum"`
}

// section is one named part of DigestInto.
type section struct {
	name string
	fold func(d *digest.Writer)
}

// sections lists the parts of the world's state in the order DigestInto
// folds them: engine (clock, event queue, stream positions), spatial grid,
// mobility model, MAC, every node (kinematics, membership flags, RNG
// position, link-state monitor) in ID order, the packet-UID and step
// counters, membership, the location service, the metrics collector, the
// link audit, and every registered external stream.
func (w *World) sections() []section {
	return []section{
		{"engine", w.eng.DigestInto},
		{"grid", w.grid.DigestInto},
		{"mobility", func(d *digest.Writer) {
			dg, ok := w.model.(Digester)
			d.Bool(ok)
			if ok {
				dg.DigestInto(d)
			}
		}},
		{"mac", w.mac.DigestInto},
		{"nodes", func(d *digest.Writer) {
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
		}},
		{"counters", func(d *digest.Writer) {
			d.U64(w.uid)
			d.U64(w.stepSeq)
		}},
		{"membership", func(d *digest.Writer) {
			d.Int(w.joins)
			d.Int(w.leaves)
			d.Bool(w.beaconing)
			d.Int(len(w.actives))
			for _, n := range w.actives {
				d.U32(uint32(n.id))
			}
		}},
		{"location", func(d *digest.Writer) {
			d.Int(len(w.locPos))
			for i := range w.locPos {
				d.F64(w.locPos[i].X)
				d.F64(w.locPos[i].Y)
				d.F64(w.locVel[i].X)
				d.F64(w.locVel[i].Y)
				d.Bool(w.locOK[i])
			}
		}},
		{"metrics", w.col.DigestInto},
		{"audit", func(d *digest.Writer) {
			d.Bool(w.audit != nil)
			if w.audit != nil {
				w.audit.digestInto(d)
			}
		}},
		{"streams", func(d *digest.Writer) {
			d.Int(len(w.extStreams))
			for _, s := range w.extStreams {
				d.Str(s.name)
				d.I64(s.src.SeedValue())
				d.U64(s.src.Draws())
			}
		}},
	}
}

// DigestInto folds the world's complete checkpoint-relevant state into d,
// section by section in sections' order.
//
// Excluded by design: the radio cache (pure memoization), the packet free
// lists, and stateBuf — all process-local scratch that a restored world
// re-derives. The result is identical across processes and worker counts
// for the same event history.
func (w *World) DigestInto(d *digest.Writer) {
	for _, s := range w.sections() {
		s.fold(d)
	}
}

// Layers folds each section of DigestInto into a fresh writer of its own
// and returns the digests in DigestInto's order.
func (w *World) Layers() []Layer {
	secs := w.sections()
	out := make([]Layer, len(secs))
	for i, s := range secs {
		d := digest.New()
		s.fold(d)
		out[i] = Layer{Name: s.name, Sum: d.Sum()}
	}
	return out
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
