package linkstate

import (
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/link"
	"github.com/vanetlab/relroute/internal/prob"
)

func TestRegistry(t *testing.T) {
	want := []string{"composite", "kinematic", "receipt", "rssi"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if !Known(name) {
			t.Errorf("Known(%q) = false", name)
		}
		if e, err := New(name, Config{}); err != nil {
			t.Errorf("New(%q) = %v, %v", name, e, err)
		}
	}
	if !Known("") {
		t.Error("empty name must resolve to the default")
	}
	if def, want := MustNew("", Config{}), MustNew(DefaultEstimator, Config{}); def != want {
		t.Errorf("default estimator = %#v, want %#v", def, want)
	}
	if _, err := New("nope", Config{}); err == nil {
		t.Error("unknown estimator accepted")
	}
}

func TestKinematicEstimator(t *testing.T) {
	e := MustNew("kinematic", Config{Range: 250})
	ls := LinkState{Pos: geom.V(100, 0), Vel: geom.V(-5, 0)}
	obs := Observer{Pos: geom.Vec2{}, Vel: geom.V(5, 0)}
	kin := link.LifetimeVec(ls.Pos, ls.Vel, obs.Pos, obs.Vel, 250)
	p := e.Estimate(ls, obs, kin)
	if p.Lifetime != kin {
		t.Fatalf("Lifetime = %v, want %v", p.Lifetime, kin)
	}
	if p.ReceiptProb != 1 {
		t.Fatalf("in-range ReceiptProb = %v", p.ReceiptProb)
	}
	if far := e.Estimate(LinkState{Pos: geom.V(400, 0)}, obs, 0); far.ReceiptProb != 0 {
		t.Fatalf("out-of-range ReceiptProb = %v", far.ReceiptProb)
	}
}

func TestRSSIEstimator(t *testing.T) {
	model := prob.DefaultReceiptModel()
	e := MustNew("rssi", Config{})
	// 20 dB above sensitivity, fading 2 dB/s → ~10 s predicted
	ls := LinkState{MeanRSSI: model.RxThreshDBm + 20, RSSITrend: -2}
	p := e.Estimate(ls, Observer{}, 123)
	if p.Lifetime != 10 {
		t.Fatalf("fading Lifetime = %v, want 10", p.Lifetime)
	}
	if want := model.ProbFromRSSI(ls.MeanRSSI); p.ReceiptProb != want {
		t.Fatalf("ReceiptProb = %v, want %v", p.ReceiptProb, want)
	}
	// flat trend → unbreakable under this model
	flat := e.Estimate(LinkState{MeanRSSI: model.RxThreshDBm + 20, RSSITrend: 0}, Observer{}, 0)
	if flat.Lifetime != link.Forever {
		t.Fatalf("flat-trend Lifetime = %v, want Forever", flat.Lifetime)
	}
	// below sensitivity → already dead
	dead := e.Estimate(LinkState{MeanRSSI: model.RxThreshDBm - 1, RSSITrend: -2}, Observer{}, 0)
	if dead.Lifetime != 0 {
		t.Fatalf("below-threshold Lifetime = %v, want 0", dead.Lifetime)
	}
}

func TestReceiptEstimator(t *testing.T) {
	e := MustNew("receipt", Config{})
	p := e.Estimate(LinkState{FirstSeen: 2, FeedbackProb: 0.5}, Observer{Now: 10}, 999)
	if p.ReceiptProb != 0.5 {
		t.Fatalf("ReceiptProb = %v", p.ReceiptProb)
	}
	if p.Lifetime != 8*0.5 {
		t.Fatalf("age-based Lifetime = %v, want 4", p.Lifetime)
	}
	// the age floor keeps newborn links from predicting ~0
	young := e.Estimate(LinkState{FirstSeen: 10, FeedbackProb: 1}, Observer{Now: 10}, 0)
	if young.Lifetime != 1 {
		t.Fatalf("floored Lifetime = %v, want 1", young.Lifetime)
	}
}

func TestCompositeMatchesPrePlaneMath(t *testing.T) {
	// The composite estimator is the default precisely because its two
	// outputs reproduce what the protocols hand-rolled: Eqn (4) for
	// lifetime (PBR/Taleb/Abedi) and DefaultReceiptModel over MeanRSSI
	// for receipt (REAR).
	e := MustNew("composite", Config{Range: 250})
	ls := LinkState{Pos: geom.V(120, 30), Vel: geom.V(-8, 0), MeanRSSI: -77}
	obs := Observer{Pos: geom.V(0, 0), Vel: geom.V(9, 1)}
	kin := link.LifetimeVec(ls.Pos, ls.Vel, obs.Pos, obs.Vel, 250)
	p := e.Estimate(ls, obs, kin)
	if p.Lifetime != kin {
		t.Fatalf("Lifetime = %v, want %v", p.Lifetime, kin)
	}
	if want := prob.DefaultReceiptModel().ProbFromRSSI(-77); p.ReceiptProb != want {
		t.Fatalf("ReceiptProb = %v, want %v", p.ReceiptProb, want)
	}
}

func TestSurvivalHelperMatchesInlineModel(t *testing.T) {
	// the helper must be value-identical to the construction NiuDe used
	// inline (axis from observer to neighbor, Mu = −projected Δv)
	obs := Observer{Pos: geom.V(0, 0), Vel: geom.V(10, 0)}
	ls := LinkState{Pos: geom.V(80, 40), Vel: geom.V(4, -2)}
	axis := ls.Pos.Sub(obs.Pos)
	rel := geom.Project(obs.Vel.Sub(ls.Vel), axis)
	model := prob.LinkDurationModel{
		RelSpeed: prob.Normal{Mu: -rel, Sigma: 4},
		Gap:      axis.Len(),
		Range:    250,
		Horizon:  600,
	}
	if got, want := Survival(obs, ls, 4, 250, 600, 4), model.SurvivalProb(4); got != want {
		t.Fatalf("Survival = %v, want %v", got, want)
	}
	if got, want := ExpectedDuration(obs, ls, 4, 250, 300), (prob.LinkDurationModel{
		RelSpeed: prob.Normal{Mu: -rel, Sigma: 4}, Gap: axis.Len(), Range: 250, Horizon: 300,
	}).Expected(); got != want {
		t.Fatalf("ExpectedDuration = %v, want %v", got, want)
	}
	// out-of-range links are dead in both helpers
	far := LinkState{Pos: geom.V(400, 0)}
	if Survival(obs, far, 4, 250, 600, 1) != 0 || ExpectedDuration(obs, far, 4, 250, 300) != 0 {
		t.Fatal("out-of-range link not dead")
	}
}
