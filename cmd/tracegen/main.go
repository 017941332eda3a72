// Command tracegen generates synthetic vehicle traces in SUMO's
// floating-car-data (FCD) XML format by running the built-in mobility
// models, standing in for real SUMO exports in offline environments.
//
// Usage:
//
//	tracegen -vehicles 60 -duration 120 -out highway.fcd.xml
//	tracegen -city -vehicles 100 -out city.fcd.xml
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/vanetlab/relroute/internal/mobility"
	"github.com/vanetlab/relroute/internal/prng"
	"github.com/vanetlab/relroute/internal/roadnet"
	"github.com/vanetlab/relroute/internal/traces"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		out      = fs.String("out", "-", "output file (- for stdout)")
		seed     = fs.Int64("seed", 1, "random seed")
		vehicles = fs.Int("vehicles", 60, "number of vehicles")
		buses    = fs.Int("buses", 0, "number of ferry buses")
		length   = fs.Float64("length", 2000, "highway length in meters")
		city     = fs.Bool("city", false, "Manhattan grid instead of highway")
		gridN    = fs.Int("grid", 4, "grid junctions per side (with -city)")
		speed    = fs.Float64("speed", 30, "mean desired speed in m/s")
		speedStd = fs.Float64("speedstd", 6, "speed standard deviation in m/s")
		duration = fs.Float64("duration", 60, "trace length in seconds")
		interval = fs.Float64("interval", 1.0, "sampling interval in seconds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng, _ := prng.Rand(*seed)
	var model *mobility.RoadModel
	if *city {
		net, err := roadnet.Grid(*gridN, *gridN, 400, 1, 14)
		if err != nil {
			return err
		}
		model = mobility.NewRoadModel(net, rng)
		mobility.Populate(model, rng, mobility.PopulateOptions{
			Count: *vehicles, SpeedMean: *speed, SpeedStd: *speedStd,
		})
	} else {
		var err error
		model, err = mobility.NewHighwayModel(rng, *vehicles, *length, *speed, *speedStd)
		if err != nil {
			return err
		}
	}
	if *buses > 0 {
		net := model.Network()
		var loop []roadnet.SegmentID
		for i := 0; i < net.Segments(); i++ {
			loop = append(loop, roadnet.SegmentID(i))
		}
		mobility.AddBusLine(model, loop, *buses, *speed*0.7)
	}
	tracks := mobility.Record(model, *interval, *duration)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := traces.Write(w, tracks); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d tracks over %.0fs to %s\n",
			len(tracks), *duration, *out)
	}
	return nil
}
