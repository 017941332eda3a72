package netstack

import "github.com/vanetlab/relroute/internal/digest"

// Ground-truth link auditing: the world watches true geometry to measure
// how good the reliability plane's lifetime predictions are. When a node
// first holds a neighbor entry for a peer that is genuinely within radio
// range, the audit samples the estimator's predicted residual lifetime;
// when the true inter-node distance later crosses the range (or an
// endpoint leaves the world), the observed lifetime is the elapsed time.
// Prediction and observation are both capped at the audit horizon, which
// bounds memory and removes the censoring bias long-lived links would
// otherwise introduce. Samples feed metrics.Collector.OnLinkPrediction —
// the MAE/bias/calibration block the link-accuracy experiment reports.
//
// The audit is opt-in (EnableLinkAudit) and draws no randomness; a world
// without one pays a nil check per step.

// linkSample is one open directed prediction: observer a sampled pred
// seconds of residual lifetime for its link to b at time t0.
type linkSample struct {
	a, b NodeID
	t0   float64
	pred float64
}

// linkAudit tracks open samples. The slice preserves deterministic
// open/close ordering (map iteration never decides anything observable);
// idx provides O(1) membership. ids is the per-step open scan's reused
// scratch, so a step that forms no new links costs no allocations,
// sorting, or estimator work.
type linkAudit struct {
	horizon float64
	open    []linkSample
	idx     map[uint64]bool
	ids     []NodeID
}

func pairKey(a, b NodeID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// EnableLinkAudit arms ground-truth link-break tracking with the given
// horizon in seconds: predictions and observations are capped there. Call
// before Run.
func (w *World) EnableLinkAudit(horizon float64) {
	w.audit = &linkAudit{horizon: horizon, idx: make(map[uint64]bool)}
}

// auditStep advances the audit, when one is armed, at the end of one
// mobility step: close samples whose link broke in truth (or aged past the
// horizon), then open samples for table entries without one. Both passes
// run in node-ID order: the close pass feeds float accumulation in the
// collector, and a.open grows in the order the digest folds it.
func (w *World) auditStep(now float64) {
	a := w.audit
	if a == nil {
		return
	}
	r := w.ch.MeanRange()
	keep := a.open[:0]
	for _, s := range a.open {
		obs, peer := w.nodeByID(s.a), w.nodeByID(s.b)
		broken := obs == nil || peer == nil || !obs.active || !peer.active ||
			obs.pos.Dist(peer.pos) > r
		elapsed := now - s.t0
		if !broken && elapsed < a.horizon {
			keep = append(keep, s)
			continue
		}
		if elapsed > a.horizon {
			elapsed = a.horizon
		}
		w.col.OnLinkPrediction(s.pred, elapsed)
		delete(a.idx, pairKey(s.a, s.b))
	}
	a.open = keep
	for _, n := range w.actives {
		// The IDs come in ascending order from the table's layout, and the
		// estimator runs only for the links that pass the filter: most
		// steps form no new links, and that path allocates nothing.
		obs := w.observer(n)
		a.ids = n.mon.AppendIDs(a.ids[:0])
		for _, id := range a.ids {
			if a.idx[pairKey(n.id, id)] {
				continue
			}
			peer := w.nodeByID(id)
			if peer == nil || !peer.active || n.pos.Dist(peer.pos) > r {
				continue // never open a sample on a link that is already down
			}
			st, _ := n.mon.State(id, obs)
			pred := st.Lifetime
			if pred > a.horizon {
				pred = a.horizon
			}
			a.idx[pairKey(n.id, id)] = true
			a.open = append(a.open, linkSample{a: n.id, b: id, t0: now, pred: pred})
		}
	}
}

// digestInto folds the audit's open samples into d in slice order (the
// deterministic open order). idx is derived from open, so only its size
// participates.
func (a *linkAudit) digestInto(d *digest.Writer) {
	d.F64(a.horizon)
	d.Int(len(a.open))
	for _, s := range a.open {
		d.U32(uint32(s.a))
		d.U32(uint32(s.b))
		d.F64(s.t0)
		d.F64(s.pred)
	}
	d.Int(len(a.idx))
}

// finishAudit records samples still open at the end of the run as
// censored: the run ended before either a break or the horizon resolved
// them, so they carry no usable observation.
func (w *World) finishAudit() {
	if w.audit == nil {
		return
	}
	w.col.LinkCensored += len(w.audit.open)
	w.audit.open = w.audit.open[:0]
	clear(w.audit.idx)
}
