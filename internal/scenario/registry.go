package scenario

import (
	"fmt"
	"sort"
)

// Definition is one named scenario preset: a description for listings and
// a builder that composes the provider Spec from the (defaulted) options,
// so presets scale with whatever Vehicles/Duration/GridN the caller asks
// for.
type Definition struct {
	Name        string
	Description string
	Build       func(opts Options) Spec
}

// registry holds every named scenario. It is populated at init time and
// read-only afterwards, so campaign workers can resolve names without
// locking.
var registry = map[string]Definition{}

// register adds a named scenario. It panics on duplicate or empty names —
// registration is programmer-time wiring, not runtime input.
func register(def Definition) {
	if def.Name == "" || def.Build == nil {
		panic("scenario: register needs a name and a builder")
	}
	if _, dup := registry[def.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate scenario %q", def.Name))
	}
	registry[def.Name] = def
}

// Named returns the definition registered under name.
func Named(name string) (Definition, bool) {
	def, ok := registry[name]
	return def, ok
}

// Names lists every registered scenario name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Descriptions returns name → description for listings.
func Descriptions() map[string]string {
	out := make(map[string]string, len(registry))
	for name, def := range registry {
		out[name] = def.Description
	}
	return out
}

func init() {
	register(Definition{
		Name:        "highway",
		Description: "closed-world bidirectional highway (the paper's default habitat)",
		Build: func(Options) Spec {
			return Spec{Name: "highway", Topology: HighwayTopology{}}
		},
	})
	register(Definition{
		Name:        "city",
		Description: "closed-world Manhattan grid",
		Build: func(Options) Spec {
			return Spec{Name: "city", Topology: GridTopology{}}
		},
	})
	register(Definition{
		Name:        "ring",
		Description: "closed-world ring road holding density constant",
		Build: func(Options) Spec {
			return Spec{Name: "ring", Topology: RingTopology{}}
		},
	})
	register(Definition{
		Name:        "highway-churn",
		Description: "open-world highway: Poisson arrivals, lifetime-bounded departures",
		Build: func(o Options) Spec {
			// replace roughly the whole population once over the run
			rate := float64(o.Vehicles) / o.Duration
			return Spec{
				Name:     "highway-churn",
				Topology: HighwayTopology{},
				Traffic: OpenTraffic{
					Arrivals:     ConstantRate(rate),
					MeanLifetime: o.Duration / 2,
				},
			}
		},
	})
	register(Definition{
		Name:        "city-rush",
		Description: "open-world city grid under a rush-hour arrival ramp",
		Build: func(o Options) Spec {
			base := float64(o.Vehicles) / o.Duration
			return Spec{
				Name: "city-rush",
				// downtown-density blocks: a 250 m radio reaches around a
				// corner, so the rush hour congests the network instead of
				// partitioning it
				Topology: GridTopology{Spacing: 250},
				Traffic: OpenTraffic{
					Initial:      o.Vehicles,
					Arrivals:     RushHour(base, 3*base, o.Duration/2, o.Duration/2),
					MeanLifetime: o.Duration / 2,
				},
			}
		},
	})
	register(Definition{
		Name:        "emergency",
		Description: "closed highway with a bursty emergency-broadcast workload on top of CBR",
		Build: func(Options) Spec {
			return Spec{
				Name:     "emergency",
				Topology: HighwayTopology{},
				Workload: Workloads{CBRWorkload{}, BurstWorkload{}},
			}
		},
	})
	register(Definition{
		Name:        "v2i",
		Description: "highway with roadside servers and V2I request/response traffic",
		Build: func(Options) Spec {
			return Spec{
				Name:     "v2i",
				Topology: HighwayTopology{},
				Workload: V2IWorkload{},
			}
		},
	})
}
