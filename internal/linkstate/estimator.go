package linkstate

import (
	"fmt"
	"sort"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/prob"
)

// Prediction is an estimator's output for one link: the predicted
// residual lifetime in seconds and the per-frame receipt probability.
type Prediction struct {
	Lifetime    float64
	ReceiptProb float64
}

// Estimator predicts link quality from the monitored evidence; kinematic
// is the memoized Eqn (4) residual lifetime precomputed by the Monitor.
// Implementations must be stateless and deterministic — per-link state
// belongs in the LinkState evidence fields, and estimators run inside the
// single-threaded engines of many concurrent simulations. The value-in,
// value-out shape keeps Monitor.State allocation-free (a pointer argument
// would escape through the interface call).
type Estimator interface {
	// Estimate predicts from the observed link evidence.
	Estimate(ls LinkState, obs Observer, kinematic float64) Prediction
}

// Config parameterises estimator construction.
type Config struct {
	// Range is the communication range r in meters used by geometric
	// predictions (zero means 250 — the nominal DSRC figure).
	Range float64
}

// The estimators' fixed parameters. The rssi and composite estimators map
// RSSI to receipt probability with prob.DefaultReceiptModel.
const (
	// trendFloor is the minimum fading rate in dB/s the rssi estimator
	// extrapolates; flatter trends predict an unbreakable link.
	trendFloor = 1e-3
	// minAge floors the receipt estimator's age-based residual, s.
	minAge = 1.0
)

// registry maps estimator names to their constructors. It is read
// concurrently by runner workers and never written.
var registry = map[string]func(Config) Estimator{
	"kinematic": func(c Config) Estimator {
		r := c.Range
		if r <= 0 {
			r = 250
		}
		return kinematicEstimator{rangeM: r}
	},
	"rssi":      func(Config) Estimator { return rssiEstimator{receipt: prob.DefaultReceiptModel()} },
	"receipt":   func(Config) Estimator { return receiptEstimator{} },
	"composite": func(Config) Estimator { return compositeEstimator{receipt: prob.DefaultReceiptModel()} },
}

// DefaultEstimator is the registry name resolved for an empty estimator
// selection: the composite estimator, whose predictions reproduce exactly
// what the protocols computed before the reliability plane existed.
const DefaultEstimator = "composite"

// Known reports whether name resolves in the registry ("" is the default).
func Known(name string) bool {
	if name == "" {
		return true
	}
	_, ok := registry[name]
	return ok
}

// Names returns the registered estimator names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds the named estimator ("" selects DefaultEstimator).
func New(name string, cfg Config) (Estimator, error) {
	if name == "" {
		name = DefaultEstimator
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("linkstate: unknown estimator %q (known: %v)", name, Names())
	}
	return f(cfg), nil
}

// MustNew is New for statically known names; it panics on unknown ones.
func MustNew(name string, cfg Config) Estimator {
	e, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// kinematicEstimator is the paper's Sec. IV-A predictor: the residual
// lifetime is the Eqn (4) solution on the beaconed kinematics, and receipt
// is the unit-disk indicator of the current geometric distance.
type kinematicEstimator struct{ rangeM float64 }

// Estimate implements Estimator.
func (e kinematicEstimator) Estimate(ls LinkState, obs Observer, kinematic float64) Prediction {
	p := Prediction{Lifetime: kinematic}
	if ls.Pos.Dist(obs.Pos) <= e.rangeM {
		p.ReceiptProb = 1
	}
	return p
}

// rssiEstimator is the radio-only predictor (REAR's family): receipt from
// the shadowing loss model over the smoothed beacon RSSI, and lifetime by
// extrapolating the RSSI trend down to the receiver sensitivity.
type rssiEstimator struct{ receipt prob.ReceiptModel }

// Estimate implements Estimator.
func (e rssiEstimator) Estimate(ls LinkState, obs Observer, kinematic float64) Prediction {
	p := Prediction{ReceiptProb: e.receipt.ProbFromRSSI(ls.MeanRSSI)}
	margin := ls.MeanRSSI - e.receipt.RxThreshDBm
	switch {
	case margin <= 0:
		p.Lifetime = 0 // already below sensitivity
	case ls.RSSITrend < -trendFloor:
		p.Lifetime = margin / -ls.RSSITrend
	default:
		p.Lifetime = link.Forever // flat or improving signal
	}
	return p
}

// receiptEstimator is the pure feedback predictor (the REAR-style
// fold-in-observed-reception direction of arXiv:1704.07519): receipt is
// the EWMA of observed per-frame outcomes, and the residual lifetime is
// age-proportional (a link that has survived t tends to survive about t
// more) discounted by that same feedback.
type receiptEstimator struct{}

// Estimate implements Estimator.
func (receiptEstimator) Estimate(ls LinkState, obs Observer, kinematic float64) Prediction {
	age := max(obs.Now-ls.FirstSeen, minAge)
	return Prediction{Lifetime: age * ls.FeedbackProb, ReceiptProb: ls.FeedbackProb}
}

// compositeEstimator is the default: the best single-source estimate per
// quantity — kinematic Eqn (4) for the residual lifetime, the RSSI loss
// model for receipt probability. Its predictions are exactly what the
// protocols hand-rolled before the plane existed, which is what keeps the
// golden experiment outputs byte-identical.
type compositeEstimator struct{ receipt prob.ReceiptModel }

// Estimate implements Estimator.
func (e compositeEstimator) Estimate(ls LinkState, obs Observer, kinematic float64) Prediction {
	return Prediction{Lifetime: kinematic, ReceiptProb: e.receipt.ProbFromRSSI(ls.MeanRSSI)}
}

// durationModel builds the Sec. VII link-duration model for the link
// from the observer to ls: the axis points observer → neighbor, the gap
// is signed positive along it, and Mu is the negated projected closing
// speed (positive Δv toward the neighbor shrinks the gap). It reports
// false when the gap already exceeds the range — the link is down.
func durationModel(obs Observer, ls LinkState, sigma, rangeM, horizon float64) (prob.LinkDurationModel, bool) {
	axis := ls.Pos.Sub(obs.Pos)
	gap := axis.Len()
	if gap > rangeM {
		return prob.LinkDurationModel{}, false
	}
	rel := geom.Project(obs.Vel.Sub(ls.Vel), axis)
	return prob.LinkDurationModel{
		RelSpeed: prob.Normal{Mu: -rel, Sigma: sigma},
		Gap:      gap,
		Range:    rangeM,
		Horizon:  horizon,
	}, true
}

// Survival is the shared Sec. VII link-availability helper: the
// probability that the link from the observer to ls outlives t seconds
// under a normal relative-speed model N(observed Δv, sigma²) — the inline
// math NiuDe-style QoS protocols used to duplicate. horizon truncates the
// duration statistics (0 means the model default).
func Survival(obs Observer, ls LinkState, sigma, rangeM, horizon, t float64) float64 {
	model, up := durationModel(obs, ls, sigma, rangeM, horizon)
	if !up {
		return 0
	}
	return model.SurvivalProb(t)
}

// ExpectedDuration is the shared Sec. VII expected-link-duration helper:
// E[min(T, horizon)] under the same normal relative-speed model — the
// metric behind the paper's TBP variants.
func ExpectedDuration(obs Observer, ls LinkState, sigma, rangeM, horizon float64) float64 {
	model, up := durationModel(obs, ls, sigma, rangeM, horizon)
	if !up {
		return 0
	}
	return model.Expected()
}

// ExpectedDurationBound is a number never below what ExpectedDuration
// returns for the same arguments, in closed form
// (prob.LinkDurationModel.ExpectedBound): what a caller that keeps only
// the best few links ranks them by before it integrates any.
func ExpectedDurationBound(obs Observer, ls LinkState, sigma, rangeM, horizon float64) float64 {
	model, up := durationModel(obs, ls, sigma, rangeM, horizon)
	if !up {
		return 0
	}
	return model.ExpectedBound()
}
