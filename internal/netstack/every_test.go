package netstack

import (
	"fmt"
	"slices"
	"testing"

	"github.com/vanetlab/relroute/internal/mobility"
)

// everyRouter arms one periodic job when attached; each run logs itself
// and schedules a one-shot timer exactly one period ahead.
type everyRouter struct {
	quietRouter
	log []string
}

func (r *everyRouter) Attach(api *API) {
	r.Base.Attach(api)
	api.Every(0.3, 0.5, r)
}

func (r *everyRouter) Tick() {
	r.log = append(r.log, fmt.Sprintf("tick %.1f", r.API.Now()))
	r.API.After(0.5, func() { r.log = append(r.log, fmt.Sprintf("after %.1f", r.API.Now())) })
}

// TestEveryRunsFnThenReschedules pins the order Every keeps: the first run
// at first, then one every period, each rescheduled only after fn returns,
// so a timer fn sets one period ahead fires before fn's own next run.
func TestEveryRunsFnThenReschedules(t *testing.T) {
	r := &everyRouter{}
	w := NewWorld(Config{Seed: 1}, mobility.NewPlayback(longTracks(1, 10)))
	w.AddVehicleNodes(func() Router { return r })
	if err := w.Run(1.4); err != nil {
		t.Fatal(err)
	}
	want := []string{"tick 0.3", "after 0.8", "tick 0.8", "after 1.3", "tick 1.3"}
	if !slices.Equal(r.log, want) {
		t.Fatalf("log = %q, want %q", r.log, want)
	}
}
