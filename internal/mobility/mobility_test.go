package mobility

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vanetlab/relroute/internal/geom"
	"github.com/vanetlab/relroute/internal/roadnet"
)

func testNet(t *testing.T) (*roadnet.Network, roadnet.SegmentID) {
	t.Helper()
	net, eb, _, err := roadnet.Highway(5000, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	return net, eb
}

func TestIDMFreeRoad(t *testing.T) {
	p := DefaultIDM(30)
	// at rest on free road: accelerate at close to max
	a := p.accel(0, math.Inf(1), 0)
	if math.Abs(a-p.MaxAccel) > 1e-9 {
		t.Fatalf("free-road accel from rest = %v, want %v", a, p.MaxAccel)
	}
	// at desired speed: zero acceleration
	if got := p.accel(30, math.Inf(1), 0); math.Abs(got) > 1e-9 {
		t.Fatalf("accel at desired speed = %v, want 0", got)
	}
	// above desired speed: decelerate
	if got := p.accel(40, math.Inf(1), 0); got >= 0 {
		t.Fatalf("accel above desired speed = %v, want negative", got)
	}
}

func TestIDMBrakesForLeader(t *testing.T) {
	p := DefaultIDM(30)
	// closing fast on a close leader → strong braking
	a := p.accel(30, 10, 10)
	if a > -2 {
		t.Fatalf("accel closing on leader = %v, want strong braking", a)
	}
	// huge gap ≈ free road
	af := p.accel(20, 1e6, 0)
	free := p.accel(20, math.Inf(1), 0)
	if math.Abs(af-free) > 0.01 {
		t.Fatalf("large-gap accel %v differs from free %v", af, free)
	}
}

func TestNoNegativeSpeeds(t *testing.T) {
	net, eb := testNet(t)
	m := NewRoadModel(net, rand.New(rand.NewSource(1)), ContinueRandom)
	// a stopped vehicle right behind another
	m.AddVehicle(eb, 0, 100, DefaultIDM(30), Car)
	m.AddVehicle(eb, 0, 95, DefaultIDM(30), Car)
	for i := 0; i < 600; i++ {
		m.Advance(0.1)
		for _, s := range m.States() {
			if s.Speed < 0 {
				t.Fatalf("negative speed %v at step %d", s.Speed, i)
			}
		}
	}
}

func TestNoRearEndPassThrough(t *testing.T) {
	net, eb := testNet(t)
	m := NewRoadModel(net, rand.New(rand.NewSource(2)), ContinueRandom)
	// fast follower behind slow leader in the same lane; keep one lane to
	// forbid overtaking
	net1, eb1, _, err := roadnet.Highway(5000, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	_ = net
	_ = eb
	m = NewRoadModel(net1, rand.New(rand.NewSource(2)), ContinueRandom)
	slow := DefaultIDM(10)
	fast := DefaultIDM(40)
	leader := m.AddVehicle(eb1, 0, 200, slow, Car)
	follower := m.AddVehicle(eb1, 0, 50, fast, Car)
	for i := 0; i < 1200; i++ {
		m.Advance(0.1)
		var lo, fo float64
		for _, s := range m.States() {
			switch s.ID {
			case leader:
				lo = s.Offset
			case follower:
				fo = s.Offset
			}
		}
		// follower must never pass through the leader (same segment until
		// the end of the road)
		if lo > fo+1 || lo > 4900 {
			continue
		}
		if fo > lo-1 {
			t.Fatalf("step %d: follower %.1f overlapped leader %.1f", i, fo, lo)
		}
	}
}

func TestVehiclesProgress(t *testing.T) {
	net, eb := testNet(t)
	m := NewRoadModel(net, rand.New(rand.NewSource(3)), ContinueRandom)
	id := m.AddVehicle(eb, 0, 0, DefaultIDM(30), Car)
	for i := 0; i < 100; i++ {
		m.Advance(0.1)
	}
	for _, s := range m.States() {
		if s.ID == id && s.Offset < 200 {
			t.Fatalf("vehicle moved only %.1f m in 10 s", s.Offset)
		}
	}
}

func TestJunctionTransitionKeepsMoving(t *testing.T) {
	net, err := roadnet.Ring(2000, 8, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(4)), ContinueRandom)
	m.AddVehicle(0, 0, 0, DefaultIDM(25), Car)
	total := 0.0
	prev := m.States()[0]
	for i := 0; i < 2000; i++ {
		m.Advance(0.1)
		cur := m.States()[0]
		total += prev.Pos.Dist(cur.Pos)
		prev = cur
	}
	// 200 s at ~25 m/s ≈ 5000 m: the vehicle loops the 2 km ring without
	// parking at segment ends
	if total < 3000 {
		t.Fatalf("vehicle travelled only %.0f m on the ring", total)
	}
}

func TestStatesFields(t *testing.T) {
	net, eb := testNet(t)
	m := NewRoadModel(net, rand.New(rand.NewSource(5)), ContinueRandom)
	m.AddVehicle(eb, 1, 100, DefaultIDM(25), Bus)
	s := m.States()[0]
	if s.Class != Bus {
		t.Fatalf("class = %v", s.Class)
	}
	if s.Lane != 1 || s.Segment != eb {
		t.Fatalf("lane/segment = %d/%d", s.Lane, s.Segment)
	}
	if s.Vel.X <= 0 {
		t.Fatalf("velocity = %v, want eastbound", s.Vel)
	}
	if math.Abs(s.Speed-s.Vel.Len()) > 1e-9 {
		t.Fatalf("speed %v != |vel| %v", s.Speed, s.Vel.Len())
	}
}

func TestAddVehicleClamping(t *testing.T) {
	net, eb := testNet(t)
	m := NewRoadModel(net, rand.New(rand.NewSource(6)), ContinueRandom)
	m.AddVehicle(eb, 99, 100, DefaultIDM(25), Car) // lane clamped
	m.AddVehicle(eb, -1, 100, DefaultIDM(25), Car)
	for _, s := range m.States() {
		if s.Lane < 0 || s.Lane >= net.Segment(eb).Lanes {
			t.Fatalf("lane %d out of range", s.Lane)
		}
	}
}

func TestPopulateUniformAndDeterministic(t *testing.T) {
	net, _ := testNet(t)
	build := func(seed int64) []State {
		m := NewRoadModel(net, rand.New(rand.NewSource(99)), ContinueRandom)
		Populate(m, rand.New(rand.NewSource(seed)), PopulateOptions{
			Count: 40, SpeedMean: 30, SpeedStd: 5,
		})
		return m.States()
	}
	a, b := build(7), build(7)
	if len(a) != 40 {
		t.Fatalf("populated %d vehicles", len(a))
	}
	for i := range a {
		if a[i].Pos != b[i].Pos {
			t.Fatal("populate not deterministic for equal seeds")
		}
	}
	c := build(8)
	same := true
	for i := range a {
		if a[i].Pos != c[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestAddBusLine(t *testing.T) {
	net, err := roadnet.Ring(4000, 8, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(1)), ContinueRandom)
	var route []roadnet.SegmentID
	for i := 0; i < net.Segments(); i++ {
		route = append(route, roadnet.SegmentID(i))
	}
	ids := AddBusLine(m, route, 3, 20)
	if len(ids) != 3 {
		t.Fatalf("bus count = %d", len(ids))
	}
	for _, s := range m.States() {
		if s.Class != Bus {
			t.Fatalf("class = %v", s.Class)
		}
	}
	// buses stay on the ring over a long run
	for i := 0; i < 3000; i++ {
		m.Advance(0.1)
	}
	if got := m.Len(); got != 3 {
		t.Fatalf("buses despawned: %d left", got)
	}
	if ids2 := AddBusLine(m, nil, 3, 20); ids2 != nil {
		t.Fatal("empty route produced buses")
	}
}

func TestDespawnPolicy(t *testing.T) {
	// on a plain two-junction one-way road, Despawn removes vehicles at
	// the end
	b := roadnet.NewBuilder()
	a := b.AddJunction(geom.V(0, 0))
	c := b.AddJunction(geom.V(500, 0))
	seg := b.AddSegment(a, c, 1, 3.5, 30)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(1)), Despawn)
	m.AddVehicle(seg, 0, 450, DefaultIDM(30), Car)
	for i := 0; i < 200; i++ {
		m.Advance(0.1)
	}
	if m.Len() != 0 {
		t.Fatalf("vehicle not despawned at road end: %d left", m.Len())
	}
}

func TestRemoveVehicleMidRun(t *testing.T) {
	net, eb, _, err := roadnet.Highway(2000, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := NewRoadModel(net, rand.New(rand.NewSource(1)), ContinueRandom)
	a := m.AddVehicle(eb, 0, 100, DefaultIDM(30), Car)
	bID := m.AddVehicle(eb, 1, 300, DefaultIDM(25), Car)
	m.Advance(0.1)
	has := func(id VehicleID) bool { return int(id) < len(m.vs) && m.vs[id] != nil }
	if !has(a) || !has(bID) {
		t.Fatal("vehicles missing before removal")
	}
	if !m.RemoveVehicle(a) {
		t.Fatal("RemoveVehicle reported absent vehicle")
	}
	if m.RemoveVehicle(a) {
		t.Fatal("double removal succeeded")
	}
	if has(a) {
		t.Fatal("removed vehicle still present")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after removal", m.Len())
	}
	// the model keeps advancing and the removed ID never reappears
	for i := 0; i < 50; i++ {
		m.Advance(0.1)
		for _, s := range m.States() {
			if s.ID == a {
				t.Fatal("removed vehicle reappeared in States")
			}
		}
	}
	// a vehicle spawned after the removal gets a fresh, never-reused ID
	c := m.AddVehicle(eb, 0, 50, DefaultIDM(28), Car)
	if c == a {
		t.Fatal("vehicle ID reused after removal")
	}
	m.Advance(0.1)
	if m.Len() != 2 {
		t.Fatalf("Len = %d after mid-run spawn", m.Len())
	}
}
