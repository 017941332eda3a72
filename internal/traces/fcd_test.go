package traces

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/mobility"
)

func sampleTracks() []mobility.Track {
	return []mobility.Track{
		{
			ID: 0,
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(0, 0), Speed: 10},
				{T: 1, Pos: geom.V(10.5, 0), Speed: 10.5},
			},
		},
		{
			ID:    1,
			Class: mobility.Bus,
			Waypoints: []mobility.Waypoint{
				{T: 0, Pos: geom.V(100, 3.5), Speed: 20},
				{T: 1, Pos: geom.V(120, 3.5), Speed: 20},
			},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTracks()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("tracks = %d", len(got))
	}
	if got[1].Class != mobility.Bus {
		t.Fatal("bus class lost in round trip")
	}
	if got[0].Class != mobility.Car {
		t.Fatal("car class lost in round trip")
	}
	for ti, tr := range got {
		want := sampleTracks()[ti]
		if len(tr.Waypoints) != len(want.Waypoints) {
			t.Fatalf("track %d waypoints = %d", ti, len(tr.Waypoints))
		}
		for wi, wp := range tr.Waypoints {
			w := want.Waypoints[wi]
			if math.Abs(wp.Pos.X-w.Pos.X) > 0.01 || math.Abs(wp.Pos.Y-w.Pos.Y) > 0.01 {
				t.Errorf("track %d wp %d pos = %v, want %v", ti, wi, wp.Pos, w.Pos)
			}
			if math.Abs(wp.Speed-w.Speed) > 0.01 {
				t.Errorf("track %d wp %d speed = %v, want %v", ti, wi, wp.Speed, w.Speed)
			}
			if wp.T != w.T {
				t.Errorf("track %d wp %d t = %v, want %v", ti, wi, wp.T, w.T)
			}
		}
	}
}

func TestWriteFormatLooksLikeSUMO(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTracks()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<fcd-export>", `<timestep time="0.00">`, `<vehicle id="veh0"`, `type="bus"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"not-xml":        "hello",
		"bad-time":       `<fcd-export><timestep time="zzz"/></fcd-export>`,
		"bad-x":          `<fcd-export><timestep time="0"><vehicle id="a" x="?" y="0" speed="0"/></timestep></fcd-export>`,
		"bad-y":          `<fcd-export><timestep time="0"><vehicle id="a" x="0" y="?" speed="0"/></timestep></fcd-export>`,
		"bad-speed":      `<fcd-export><timestep time="0"><vehicle id="a" x="0" y="0" speed="?"/></timestep></fcd-export>`,
		"nan-x":          `<fcd-export><timestep time="0"><vehicle id="a" x="NaN" y="0" speed="0"/></timestep></fcd-export>`,
		"inf-y":          `<fcd-export><timestep time="0"><vehicle id="a" x="0" y="+Inf" speed="0"/></timestep></fcd-export>`,
		"neg-inf-speed":  `<fcd-export><timestep time="0"><vehicle id="a" x="0" y="0" speed="-inf"/></timestep></fcd-export>`,
		"nan-time":       `<fcd-export><timestep time="nan"/></fcd-export>`,
		"duplicate-time": `<fcd-export><timestep time="1"/><timestep time="1"/></fcd-export>`,
		"backwards-time": `<fcd-export><timestep time="2"/><timestep time="1"/></fcd-export>`,
		"truncated":      `<fcd-export><timestep time="0"><vehicle id="a" x="0" y="0" sp`,
		"dup-vehicle":    `<fcd-export><timestep time="0"><vehicle id="a" x="0" y="0" speed="0"/><vehicle id="a" x="1" y="1" speed="1"/></timestep></fcd-export>`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(doc)); err == nil {
				t.Error("malformed document accepted")
			}
		})
	}
}

func TestReadMalformedErrorsAreTyped(t *testing.T) {
	for _, doc := range []string{
		`<fcd-export><timestep time="0"><vehicle id="a" x="NaN" y="0" speed="0"/></timestep></fcd-export>`,
		`<fcd-export><timestep time="1"/><timestep time="1"/></fcd-export>`,
	} {
		_, err := Read(strings.NewReader(doc))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("err = %v, want wrapped ErrMalformed", err)
		}
	}
}

func TestReadArbitraryVehicleIDs(t *testing.T) {
	doc := `<fcd-export>
	<timestep time="0.0">
		<vehicle id="flow0.23" x="1" y="2" speed="3"/>
		<vehicle id="bus_7" x="4" y="5" speed="6" type="bus"/>
	</timestep>
	<timestep time="1.0">
		<vehicle id="flow0.23" x="2" y="2" speed="3"/>
	</timestep>
</fcd-export>`
	tracks, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	if len(tracks[0].Waypoints) != 2 || len(tracks[1].Waypoints) != 1 {
		t.Fatalf("waypoint counts = %d/%d", len(tracks[0].Waypoints), len(tracks[1].Waypoints))
	}
	if tracks[1].Class != mobility.Bus {
		t.Fatal("bus type not mapped")
	}
}

func TestRoundTripThroughPlayback(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTracks()); err != nil {
		t.Fatal(err)
	}
	tracks, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pb := mobility.NewPlayback(tracks)
	pb.Advance(0.5)
	s := pb.StatesInto(nil)
	if len(s) != 2 {
		t.Fatalf("states = %d", len(s))
	}
	if math.Abs(s[0].Pos.X-5.25) > 0.01 {
		t.Fatalf("interpolated playback pos = %v", s[0].Pos)
	}
}

func TestReadWriteFile(t *testing.T) {
	tracks := []mobility.Track{{
		ID: 0,
		Waypoints: []mobility.Waypoint{
			{T: 0, Pos: geom.V(0, 0), Speed: 10},
			{T: 1, Pos: geom.V(10, 0), Speed: 10},
		},
	}}
	path := filepath.Join(t.TempDir(), "out.fcd.xml")
	if err := WriteFile(path, tracks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Waypoints) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.xml")); err == nil {
		t.Fatal("missing file read without error")
	}
}

func TestReadFixture(t *testing.T) {
	tracks, err := ReadFile("../../testdata/fixture_5veh.fcd.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 5 {
		t.Fatalf("fixture tracks = %d, want 5", len(tracks))
	}
	for i, tr := range tracks {
		first, last := tr.Span()
		if first != 0 || last != 30 {
			t.Fatalf("fixture track %d window = [%v, %v], want [0, 30]", i, first, last)
		}
	}
}
