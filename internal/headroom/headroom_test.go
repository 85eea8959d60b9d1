package headroom_test

import (
	"fmt"
	"reflect"
	"testing"

	"cubefit/internal/baseline"
	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/rfi"
	"cubefit/internal/rng"
)

// compareReports asserts the incremental auditor agrees exactly with the
// exhaustive full-rescan reference. Both compute every entry through
// Server.TopSharedSet on the same placement state, so the comparison is
// exact equality, not tolerance-based.
func compareReports(t *testing.T, a *headroom.Auditor, p *packing.Placement, step int) {
	t.Helper()
	got := a.Report()
	want := headroom.Exhaustive(p, got.RedLine)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: incremental report diverged from exhaustive\n got: %+v\nwant: %+v", step, got, want)
	}
	if (got.Overloaded == 0) != (p.ValidateRobustness() == nil) {
		t.Fatalf("step %d: overloaded=%d disagrees with ValidateRobustness()=%v",
			step, got.Overloaded, p.ValidateRobustness())
	}
}

// placer is the slice of engine surface the property test drives.
type placer interface {
	Place(packing.Tenant) error
	Placement() *packing.Placement
	SetRecorder(obs.Recorder)
}

// TestIncrementalMatchesExhaustive is the property test of the tentpole:
// for γ ∈ {2, 3, 4}, over randomized place/depart sequences against the
// real CubeFit engine, the incrementally maintained report equals the
// exhaustive top-(γ−1) recomputation after every operation.
func TestIncrementalMatchesExhaustive(t *testing.T) {
	for _, gamma := range []int{2, 3, 4} {
		gamma := gamma
		t.Run(fmt.Sprintf("gamma=%d", gamma), func(t *testing.T) {
			cf, err := core.New(core.Config{Gamma: gamma, K: 6})
			if err != nil {
				t.Fatal(err)
			}
			a := headroom.New(cf.Placement(), 0)
			cf.SetRecorder(a)

			r := rng.New(uint64(20170605 + gamma))
			var live []packing.TenantID
			next := packing.TenantID(1)
			const ops = 300
			for op := 0; op < ops; op++ {
				if len(live) > 0 && r.Float64() < 0.35 {
					i := r.Intn(len(live))
					id := live[i]
					if err := cf.Remove(id); err != nil {
						t.Fatalf("op %d: remove %d: %v", op, id, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					load := 0.01 + 0.94*r.Float64()
					id := next
					next++
					if err := cf.Place(packing.Tenant{ID: id, Load: load, Clients: 8}); err == nil {
						live = append(live, id)
					}
				}
				compareReports(t, a, cf.Placement(), op)
			}
			if len(live) == 0 {
				t.Fatal("degenerate run: no tenants survived")
			}
		})
	}
}

// TestIncrementalMatchesExhaustiveOtherEngines runs the same property
// against the baseline engines, whose event streams use different kinds
// (plain place, partial RFI placements left behind on reject).
func TestIncrementalMatchesExhaustiveOtherEngines(t *testing.T) {
	rfiEng, err := rfi.New(rfi.Config{Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := baseline.New(baseline.BestFit, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]placer{"rfi": rfiEng, "bestfit": bf} {
		eng := eng
		t.Run(name, func(t *testing.T) {
			a := headroom.New(eng.Placement(), 0)
			eng.SetRecorder(a)
			r := rng.New(0xB0B0)
			rejected := 0
			for id := packing.TenantID(1); id <= 120; id++ {
				load := 0.01 + 0.97*r.Float64()
				if err := eng.Place(packing.Tenant{ID: id, Load: load, Clients: 8}); err != nil {
					rejected++
				}
				compareReports(t, a, eng.Placement(), int(id))
			}
			t.Logf("%s: %d rejections audited", name, rejected)
		})
	}
}

// TestDepartureRaisesSlack is the regression test of the departure
// invariant: removing a tenant can only shed load, so no surviving
// server's slack decreases, and every former host's slack strictly rises.
func TestDepartureRaisesSlack(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 3, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)

	r := rng.New(0xFADE)
	var live []packing.TenantID
	for id := packing.TenantID(1); id <= 150; id++ {
		load := 0.05 + 0.9*r.Float64()
		if err := cf.Place(packing.Tenant{ID: id, Load: load, Clients: 8}); err == nil {
			live = append(live, id)
		}
	}
	if len(live) < 50 {
		t.Fatalf("degenerate run: only %d tenants admitted", len(live))
	}

	for trial := 0; trial < 25; trial++ {
		before := a.Report()
		i := r.Intn(len(live))
		victim := live[i]
		hosts := append([]int(nil), cf.Placement().TenantHosts(victim)...)
		if err := cf.Remove(victim); err != nil {
			t.Fatalf("trial %d: remove %d: %v", trial, victim, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]

		after := a.Report()
		for _, e := range after.Servers {
			if e.Slack+packing.CapacityEps < before.Servers[e.Server].Slack {
				t.Fatalf("trial %d: departure of %d lowered slack of server %d: %v -> %v",
					trial, victim, e.Server, before.Servers[e.Server].Slack, e.Slack)
			}
		}
		for _, h := range hosts {
			if h < 0 {
				continue
			}
			if after.Servers[h].Slack <= before.Servers[h].Slack {
				t.Fatalf("trial %d: departure of %d did not raise slack of host %d: %v -> %v",
					trial, victim, h, before.Servers[h].Slack, after.Servers[h].Slack)
			}
		}
		if after.MinSlack+packing.CapacityEps < before.MinSlack {
			t.Fatalf("trial %d: departure lowered min slack %v -> %v",
				trial, before.MinSlack, after.MinSlack)
		}
	}
}

// overloadedPlacement builds a γ=2 placement that violates the robustness
// invariant by hand: two tenants fully co-located on the same server pair,
// so each server's worst single failure redirects 0.9 onto a 0.9 level.
func overloadedPlacement(t *testing.T) *packing.Placement {
	t.Helper()
	p, err := packing.NewPlacement(2)
	if err != nil {
		t.Fatal(err)
	}
	for id := packing.TenantID(1); id <= 2; id++ {
		if err := p.AddTenant(packing.Tenant{ID: id, Load: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	p.OpenServer()
	p.OpenServer()
	for id := packing.TenantID(1); id <= 2; id++ {
		for idx := 0; idx < 2; idx++ {
			if err := p.Place(idx, packing.Replica{Tenant: id, Index: idx, Size: 0.45}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// TestOverloadDetection audits a placement mutated outside the event seam
// through an overload and back, marking the departing tenant's hosts
// before its removal as the controller does: the overloaded gauge follows
// the state, the overload-event counter is monotone.
func TestOverloadDetection(t *testing.T) {
	p := overloadedPlacement(t)
	a := headroom.New(p, 0)

	rep := a.Report()
	if rep.Overloaded != 2 {
		t.Fatalf("overloaded = %d, want 2", rep.Overloaded)
	}
	for _, e := range rep.Servers {
		if !e.Overloaded || e.Slack > 0 {
			t.Fatalf("server %d should be overloaded with negative slack, got %+v", e.Server, e)
		}
		want := []int{1 - e.Server}
		if !reflect.DeepEqual(e.WorstSet, want) {
			t.Fatalf("server %d worst set = %v, want %v", e.Server, e.WorstSet, want)
		}
	}
	if _, _, overloaded, events := a.Aggregates(); overloaded != 2 || events != 2 {
		t.Fatalf("aggregates overloaded=%d events=%d, want 2, 2", overloaded, events)
	}

	// Shedding one tenant restores the invariant; the event counter stays.
	a.MarkTenant(2)
	if err := p.RemoveTenant(2); err != nil {
		t.Fatal(err)
	}
	rep = a.Report()
	if rep.Overloaded != 0 {
		t.Fatalf("after removal overloaded = %d, want 0", rep.Overloaded)
	}
	if _, _, _, events := a.Aggregates(); events != 2 {
		t.Fatalf("overload events = %d, want 2 (monotone)", events)
	}
	if want := headroom.Exhaustive(p, rep.RedLine); !reflect.DeepEqual(rep, want) {
		t.Fatalf("post-sync report diverged from exhaustive\n got: %+v\nwant: %+v", rep, want)
	}
}

// TestRedLineCounting checks the threshold accounting across SetRedLine.
func TestRedLineCounting(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)
	if a.RedLine() != headroom.DefaultRedLine {
		t.Fatalf("redline = %v, want default %v", a.RedLine(), headroom.DefaultRedLine)
	}
	r := rng.New(7)
	for id := packing.TenantID(1); id <= 60; id++ {
		_ = cf.Place(packing.Tenant{ID: id, Load: 0.05 + 0.9*r.Float64(), Clients: 4})
	}
	for _, redline := range []float64{0.02, 0.3, 0.9} {
		a.SetRedLine(redline)
		rep := a.Report()
		want := headroom.Exhaustive(cf.Placement(), redline)
		if rep.BelowRedLine != want.BelowRedLine {
			t.Fatalf("redline %v: below = %d, want %d", redline, rep.BelowRedLine, want.BelowRedLine)
		}
	}
	a.SetRedLine(0) // back to default
	if a.RedLine() != headroom.DefaultRedLine {
		t.Fatalf("redline = %v, want default after reset", a.RedLine())
	}
}

// TestEmptyAuditor pins the zero-state contract used by the HTTP layer.
func TestEmptyAuditor(t *testing.T) {
	p, err := packing.NewPlacement(2)
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(p, 0)
	min, ok := a.Min()
	if ok || min.Server != -1 || min.Slack != 1 {
		t.Fatalf("empty Min() = %+v, %v; want server -1, slack 1, false", min, ok)
	}
	if _, ok := a.Entry(0); ok {
		t.Fatal("Entry(0) on empty auditor should report absent")
	}
	rep := a.Report()
	if rep.MinServer != -1 || rep.MinSlack != 1 || rep.P50Slack != 1 || len(rep.Servers) != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}

// TestWorstOrdering checks the drill-down ordering contract.
func TestWorstOrdering(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)
	r := rng.New(99)
	for id := packing.TenantID(1); id <= 40; id++ {
		_ = cf.Place(packing.Tenant{ID: id, Load: 0.05 + 0.85*r.Float64(), Clients: 4})
	}
	worst := a.Worst(3)
	if len(worst) != 3 {
		t.Fatalf("Worst(3) returned %d entries", len(worst))
	}
	for i := 1; i < len(worst); i++ {
		if worst[i].Slack+packing.CapacityEps < worst[i-1].Slack {
			t.Fatalf("Worst not ascending: %v then %v", worst[i-1].Slack, worst[i].Slack)
		}
	}
	min, _ := a.Min()
	if worst[0].Server != min.Server {
		t.Fatalf("Worst[0] = server %d, Min = server %d", worst[0].Server, min.Server)
	}
}

// TestContributors checks drill attribution: the shared load of each worst
// peer decomposes into the co-located tenants, and their sizes sum to it.
func TestContributors(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)
	r := rng.New(5150)
	for id := packing.TenantID(1); id <= 50; id++ {
		_ = cf.Place(packing.Tenant{ID: id, Load: 0.05 + 0.8*r.Float64(), Clients: 4})
	}
	min, ok := a.Min()
	if !ok || len(min.WorstSet) == 0 {
		t.Fatalf("expected a populated worst set, got %+v (ok=%v)", min, ok)
	}
	contribs, err := headroom.Contributors(cf.Placement(), min.Server, min.WorstSet)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) != len(min.WorstSet) {
		t.Fatalf("got %d contributions for %d peers", len(contribs), len(min.WorstSet))
	}
	for i, c := range contribs {
		if c.Peer != min.WorstSet[i] {
			t.Fatalf("contribution %d for peer %d, want %d", i, c.Peer, min.WorstSet[i])
		}
		if len(c.Tenants) == 0 {
			t.Fatalf("peer %d shares %v with no contributing tenants", c.Peer, c.Shared)
		}
		sum := 0.0
		for _, ts := range c.Tenants {
			sum += ts.Size
		}
		if !packing.AlmostEqualTol(sum, c.Shared, packing.CapacityEps) {
			t.Fatalf("peer %d: tenant sizes sum to %v, shared is %v", c.Peer, sum, c.Shared)
		}
	}
	if _, err := headroom.Contributors(cf.Placement(), -1, nil); err == nil {
		t.Fatal("Contributors on absent server should fail")
	}
	if _, err := headroom.Contributors(cf.Placement(), min.Server, []int{1 << 20}); err == nil {
		t.Fatal("Contributors with absent peer should fail")
	}
}

// TestMinReturnsACopy: writing into the WorstSet that Min returns must
// not reach the auditor's cached entry, whose backing array later drains
// reuse.
func TestMinReturnsACopy(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 3, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)
	r := rng.New(5150)
	for id := packing.TenantID(1); id <= 50; id++ {
		_ = cf.Place(packing.Tenant{ID: id, Load: 0.05 + 0.8*r.Float64(), Clients: 4})
	}
	min, ok := a.Min()
	if !ok || len(min.WorstSet) == 0 {
		t.Fatalf("expected a populated worst set, got %+v (ok=%v)", min, ok)
	}
	want := append([]int(nil), min.WorstSet...)
	for i := range min.WorstSet {
		min.WorstSet[i] = -1
	}
	if got, _ := a.Entry(min.Server); !reflect.DeepEqual(got.WorstSet, want) {
		t.Fatalf("server %d: cached worst set %v after a write into Min's copy, want %v",
			min.Server, got.WorstSet, want)
	}
}

// TestSummaryMatchesReport: the allocation-light Summary, and
// LastSummary right after a Drain (what the service layer reads on every
// scrape), must agree with the full Report at every step of a mixed
// admit/depart run.
func TestSummaryMatchesReport(t *testing.T) {
	cf, err := core.New(core.Config{Gamma: 3, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := headroom.New(cf.Placement(), 0)
	cf.SetRecorder(a)

	r := rng.New(20260808)
	var live []packing.TenantID
	next := packing.TenantID(1)
	for op := 0; op < 300; op++ {
		if len(live) > 0 && r.Float64() < 0.35 {
			i := r.Intn(len(live))
			if err := cf.Remove(live[i]); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			id := next
			next++
			if err := cf.Place(packing.Tenant{ID: id, Load: 0.01 + 0.94*r.Float64(), Clients: 8}); err == nil {
				live = append(live, id)
			}
		}
		a.Drain()
		last := a.LastSummary()
		s := a.Summary()
		if last != s {
			t.Fatalf("op %d: LastSummary after Drain %+v, Summary %+v", op, last, s)
		}
		rep := a.Report()
		_, _, _, events := a.Aggregates()
		want := headroom.Summary{
			MinServer:      rep.MinServer,
			MinSlack:       rep.MinSlack,
			P50Slack:       rep.P50Slack,
			RedLine:        rep.RedLine,
			BelowRedLine:   rep.BelowRedLine,
			Overloaded:     rep.Overloaded,
			OverloadEvents: events,
		}
		if s != want {
			t.Fatalf("op %d: Summary %+v, Report-derived %+v", op, s, want)
		}
	}
}
