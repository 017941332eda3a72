package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/netstack"
	"github.com/vanetlab/relroute/internal/prng"
)

// Context is what a chaos profile sees when materializing its Spec for a
// concrete run: the fault seed (scenario seed + 13, a stream fault-free
// runs never materialize), the run duration, the roadnet bounds, and the
// node populations in creation order. Rand derives from Seed and is the
// only randomness a profile may use — two runs with the same scenario
// produce byte-identical schedules.
type Context struct {
	Seed     int64
	Duration float64
	Bounds   geom.Rect
	Vehicles []netstack.NodeID
	RSUs     []netstack.NodeID
	Rand     *rand.Rand
}

// Profile is a named, parameter-free chaos schedule generator.
type Profile struct {
	Name        string
	Description string
	Build       func(Context) Spec
}

var profiles = map[string]Profile{}

// Register adds a profile to the registry. Registering a duplicate name
// panics: profiles are wired at init time and a collision is a
// programmer error.
func Register(p Profile) {
	if p.Name == "" || p.Build == nil {
		panic("faults: Register needs a name and a build function")
	}
	if _, dup := profiles[p.Name]; dup {
		panic("faults: duplicate profile " + p.Name)
	}
	profiles[p.Name] = p
}

// Named returns the registered profile.
func Named(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// Known reports whether name is a registered profile.
func Known(name string) bool {
	_, ok := profiles[name]
	return ok
}

// Names returns the registered profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for name := range profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Descriptions returns name → description for every registered profile.
func Descriptions() map[string]string {
	out := make(map[string]string, len(profiles))
	for name, p := range profiles {
		out[name] = p.Description
	}
	return out
}

// InstallNamed materializes the named profile against ctx and installs
// the resulting schedule on w. ctx.Rand is derived from ctx.Seed when
// the caller did not supply one.
func InstallNamed(name string, w *netstack.World, ctx Context) (*Engine, error) {
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("faults: unknown profile %q (have %v)", name, Names())
	}
	if ctx.Rand == nil {
		ctx.Rand, _ = prng.Rand(ctx.Seed)
	}
	return Install(w, p.Build(ctx), ctx.Duration)
}

// pick returns k node IDs drawn without replacement from ids, in draw
// order, using the context's fault stream.
func pick(rng *rand.Rand, ids []netstack.NodeID, k int) []netstack.NodeID {
	if k > len(ids) {
		k = len(ids)
	}
	out := make([]netstack.NodeID, 0, k)
	for _, i := range rng.Perm(len(ids))[:k] {
		out = append(out, ids[i])
	}
	return out
}

func init() {
	Register(Profile{
		Name:        "rsu-blackout",
		Description: "every RSU fails at half-time and stays down — the paper's disaster scenario",
		Build: func(ctx Context) Spec {
			return Spec{Events: []Event{
				{Kind: RSUBlackout, At: 0.5 * ctx.Duration},
			}}
		},
	})
	Register(Profile{
		Name:        "rolling-crashes",
		Description: "an eighth of the vehicles crash one after another, each down for a fifth of the run",
		Build: func(ctx Context) Spec {
			k := len(ctx.Vehicles) / 8
			if k < 1 {
				k = 1
			}
			victims := pick(ctx.Rand, ctx.Vehicles, k)
			var evs []Event
			for i, id := range victims {
				at := (0.2 + 0.5*float64(i)/float64(len(victims))) * ctx.Duration
				evs = append(evs, Event{
					Kind: NodeCrash, At: at, Until: at + 0.2*ctx.Duration,
					Nodes: []netstack.NodeID{id},
				})
			}
			return Spec{Events: evs}
		},
	})
	Register(Profile{
		Name:        "jammed-corridor",
		Description: "the middle third of the map is jammed (75% added loss) for the middle half of the run",
		Build: func(ctx Context) Spec {
			b := ctx.Bounds
			region := geom.NewRect(
				geom.Vec2{X: b.Min.X + b.Width()/3, Y: b.Min.Y - 50},
				geom.Vec2{X: b.Max.X - b.Width()/3, Y: b.Max.Y + 50},
			)
			return Spec{Events: []Event{
				{Kind: JamZone, At: 0.25 * ctx.Duration, Until: 0.75 * ctx.Duration,
					Region: region, Loss: 0.75},
			}}
		},
	})
	Register(Profile{
		Name:        "energy-depletion",
		Description: "battery-powered relays (RSUs, else a sixth of the vehicles) deplete one by one and stay dark (arXiv:1704.07519)",
		Build: func(ctx Context) Spec {
			targets := ctx.RSUs
			if len(targets) == 0 {
				k := len(ctx.Vehicles) / 6
				if k < 1 {
					k = 1
				}
				targets = pick(ctx.Rand, ctx.Vehicles, k)
			}
			var evs []Event
			for i, id := range targets {
				at := (0.25 + 0.6*float64(i)/float64(len(targets))) * ctx.Duration
				evs = append(evs, Event{
					Kind: NodeCrash, At: at,
					Nodes: []netstack.NodeID{id},
				})
			}
			return Spec{Events: evs}
		},
	})
	Register(Profile{
		Name:        "partition",
		Description: "a vertical cut through the map center severs every crossing link for [0.4, 0.75] of the run",
		Build: func(ctx Context) Spec {
			return Spec{Events: []Event{
				{Kind: Partition, At: 0.4 * ctx.Duration, Until: 0.75 * ctx.Duration,
					CutX: ctx.Bounds.Center().X},
			}}
		},
	})
	Register(Profile{
		Name:        "lossy-beacons",
		Description: "half of all HELLO beacons are suppressed for [0.3, 0.7] of the run — a degraded control channel",
		Build: func(ctx Context) Spec {
			return Spec{Events: []Event{
				{Kind: BeaconSuppression, At: 0.3 * ctx.Duration, Until: 0.7 * ctx.Duration,
					Prob: 0.5},
			}}
		},
	})
}
