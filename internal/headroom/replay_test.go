package headroom_test

import (
	"reflect"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/rfi"
	"cubefit/internal/rng"
)

// capture is an unbounded obs.Recorder for round-trip tests.
type capture struct {
	events []obs.Event
}

func (c *capture) Record(e obs.Event) { c.events = append(c.events, e) }

// samePlacement asserts two placements audit identically: same servers,
// levels, reserves, worst sets and aggregates.
func samePlacement(t *testing.T, got, want *packing.Placement) {
	t.Helper()
	if got.NumTenants() != want.NumTenants() {
		t.Fatalf("replayed %d tenants, live has %d", got.NumTenants(), want.NumTenants())
	}
	gr := headroom.Exhaustive(got, 0)
	wr := headroom.Exhaustive(want, 0)
	if !reflect.DeepEqual(gr, wr) {
		t.Fatalf("replayed placement audits differently\n got: %+v\nwant: %+v", gr, wr)
	}
}

// TestReplayRoundTripCubeFit replays a CubeFit decision log — admissions,
// a duplicate rejection, departures — and checks the reconstructed
// placement audits identically to the live one, with the incremental
// auditor fed during replay agreeing with the exhaustive reference.
func TestReplayRoundTripCubeFit(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 3, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	cap := &capture{}
	cf.SetRecorder(cap)

	r := rng.New(0xD1CE)
	var live []packing.TenantID
	for id := packing.TenantID(1); id <= 80; id++ {
		load := 0.02 + 0.9*r.Float64()
		if err := cf.Place(packing.Tenant{ID: id, Load: load, Clients: 8}); err == nil {
			live = append(live, id)
		}
		if len(live) > 0 && r.Float64() < 0.25 {
			i := r.Intn(len(live))
			if err := cf.Remove(live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	_ = cf.Place(packing.Tenant{ID: live[0], Load: 0.2}) // duplicate: rejected
	_ = cf.Place(packing.Tenant{ID: 5000, Load: 1.5})    // invalid: rejected
	if got := obs.InferGamma(cap.events); got != 3 {
		t.Fatalf("InferGamma = %d, want 3", got)
	}

	var points []headroom.Point
	p, a, err := headroom.Replay(cap.events, 0, 0, func(pt headroom.Point) {
		points = append(points, pt)
	})
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, p, cf.Placement())
	if rep := a.Report(); !reflect.DeepEqual(rep, headroom.Exhaustive(p, rep.RedLine)) {
		t.Fatal("replay auditor diverged from exhaustive on final state")
	}

	closings := 0
	for _, e := range cap.events {
		switch e.Kind {
		case obs.KindAdmit, obs.KindReject, obs.KindDepart:
			closings++
		}
	}
	if len(points) != closings {
		t.Fatalf("sampled %d points for %d closing events", len(points), closings)
	}
	for i, pt := range points {
		if pt.MinSlack > 1 || pt.Servers < 0 || pt.Tenants < 0 {
			t.Fatalf("point %d out of range: %+v", i, pt)
		}
	}
	last := points[len(points)-1]
	min, _ := a.Min()
	if last.MinSlack != min.Slack || last.MinServer != min.Server {
		t.Fatalf("final point %+v disagrees with auditor min %+v", last, min)
	}
}

// TestReplayRoundTripRFI replays an RFI log — a different engine with a
// different event mix (plain place events, probes, duplicate rejections) —
// and checks the reconstruction audits identically to the live placement.
func TestReplayRoundTripRFI(t *testing.T) {
	eng, err := rfi.New(rfi.Config{Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	cap := &capture{}
	eng.SetRecorder(cap)

	r := rng.New(0xACDC)
	rejected := 0
	for id := packing.TenantID(1); id <= 60; id++ {
		load := 0.05 + 0.93*r.Float64()
		if err := eng.Place(packing.Tenant{ID: id, Load: load, Clients: 8}); err != nil {
			rejected++
		}
		if id%9 == 0 {
			// Duplicate admissions are rejected without disturbing the
			// original placement; the replay must preserve it too.
			if err := eng.Place(packing.Tenant{ID: id, Load: 0.2}); err == nil {
				t.Fatalf("duplicate admission of %d unexpectedly succeeded", id)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("workload did not provoke any RFI rejection; test is vacuous")
	}

	p, a, err := headroom.Replay(cap.events, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumServers() != eng.Placement().NumServers() {
		t.Fatalf("replayed %d servers, live has %d", p.NumServers(), eng.Placement().NumServers())
	}
	samePlacement(t, p, eng.Placement())
	if rep := a.Report(); !reflect.DeepEqual(rep, headroom.Exhaustive(p, rep.RedLine)) {
		t.Fatal("replay auditor diverged from exhaustive on final state")
	}
}

// TestReplayExplicitGamma pins the gamma override and error paths.
func TestReplayExplicitGamma(t *testing.T) {
	if _, _, err := headroom.Replay(nil, 2, 0, nil); err != nil {
		t.Fatalf("empty replay: %v", err)
	}
	// A place event for an unregistered tenant is a corrupt log.
	e := obs.NewEvent(obs.KindPlace)
	e.Tenant = 9
	e.Replica = 0
	e.Server = 0
	e.Size = 0.5
	if _, _, err := headroom.Replay([]obs.Event{e}, 2, 0, nil); err == nil {
		t.Fatal("replaying a place for an unknown tenant should fail")
	}
}
