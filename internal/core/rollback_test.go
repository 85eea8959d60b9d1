package core

import (
	"errors"
	"testing"

	"cubefit/internal/packing"
)

// failOnCall returns a placeFault that fails the nth physical placement
// (1-based) after it is installed.
func failOnCall(n int) func(int, packing.Replica) error {
	calls := 0
	return func(int, packing.Replica) error {
		calls++
		if calls == n {
			return errors.New("injected placement fault")
		}
		return nil
	}
}

// checkBinCaches asserts that every bin's cached level, and the slack in
// its index node, match its server as the placement now stands.
func checkBinCaches(t *testing.T, cf *CubeFit) {
	t.Helper()
	for _, b := range cf.bins {
		srv := cf.p.Server(b.server)
		level := srv.Level()
		slack := 1 - level - srv.TopShared(cf.cfg.Gamma-1)
		if got := cf.index.nodes[b.server].slack; b.level != level || got != slack {
			t.Fatalf("bin %d: cached level %v and slack %v, server reads %v and %v",
				b.server, b.level, got, level, slack)
		}
	}
}

// TestPlaceRollbackMidPlacement forces the second replica of a regular
// admission to fail and asserts the placement is fully unwound: it still
// validates, the tenant is deregistered, every bin's caches match the
// placement, and the same tenant can be re-admitted. Before the rollback
// fix the tenant stayed registered with an unplaced replica (Validate →
// ErrIncomplete forever) and retries hit ErrBadReplica.
func TestPlaceRollbackMidPlacement(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.4}); err != nil {
		t.Fatal(err)
	}

	cf.placeFault = failOnCall(2)
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.4}); err == nil {
		t.Fatal("injected fault did not surface")
	}
	cf.placeFault = nil

	if err := cf.Placement().Validate(); err != nil {
		t.Fatalf("placement invalid after failed admission: %v", err)
	}
	if _, ok := cf.Placement().Tenant(2); ok {
		t.Fatal("failed tenant still registered")
	}
	checkDigests(t, cf, "rollback")
	checkFitIndex(t, cf)
	checkBinCaches(t, cf)
	if got := cf.Placement().NumTenants(); got != 1 {
		t.Fatalf("tenants = %d, want 1", got)
	}

	// Re-admission must succeed and land on two distinct servers.
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.4}); err != nil {
		t.Fatalf("re-admission failed: %v", err)
	}
	hosts := cf.Placement().TenantHosts(2)
	if len(hosts) != 2 || hosts[0] < 0 || hosts[1] < 0 || hosts[0] == hosts[1] {
		t.Fatalf("re-admitted hosts = %v", hosts)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatalf("placement invalid after re-admission: %v", err)
	}
}

// TestPlaceRollbackTiny exercises the same rollback on the tiny
// (class-K accumulation) path, where several tenants share the open slots
// and the cube's fill decides when the cursor advances.
func TestPlaceRollbackTiny(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.1}); err != nil {
		t.Fatal(err)
	}

	cf.placeFault = failOnCall(2)
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.1}); err == nil {
		t.Fatal("injected fault did not surface")
	}
	cf.placeFault = nil

	if err := cf.Placement().Validate(); err != nil {
		t.Fatalf("placement invalid after failed tiny admission: %v", err)
	}
	if _, ok := cf.Placement().Tenant(2); ok {
		t.Fatal("failed tenant still registered")
	}

	// The rollback must leave the tiny cube usable: re-admit the tenant
	// and keep filling the tiny slots.
	for id := 2; id <= 6; id++ {
		if err := cf.Place(packing.Tenant{ID: packing.TenantID(id), Load: 0.1}); err != nil {
			t.Fatalf("tenant %d after rollback: %v", id, err)
		}
	}
	if err := cf.Placement().ValidateExhaustive(); err != nil {
		t.Fatalf("placement invalid after refill: %v", err)
	}
}

// TestPlaceRollbackFirstReplica covers the degenerate case where the very
// first physical placement fails (nothing to unplace, but the tenant must
// still be deregistered).
func TestPlaceRollbackFirstReplica(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cf.placeFault = failOnCall(1)
	if err := cf.Place(packing.Tenant{ID: 7, Load: 0.4}); err == nil {
		t.Fatal("injected fault did not surface")
	}
	cf.placeFault = nil
	if _, ok := cf.Placement().Tenant(7); ok {
		t.Fatal("failed tenant still registered")
	}
	if err := cf.Place(packing.Tenant{ID: 7, Load: 0.4}); err != nil {
		t.Fatalf("re-admission failed: %v", err)
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceDuplicateLeavesPlacementIntact: admitting an already-placed
// tenant must fail without unwinding the existing placement.
func TestPlaceDuplicateLeavesPlacementIntact(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.4}); !errors.Is(err, packing.ErrDuplicateTenant) {
		t.Fatalf("duplicate admission error = %v, want ErrDuplicateTenant", err)
	}
	if _, ok := cf.Placement().Tenant(1); !ok {
		t.Fatal("duplicate admission evicted the original tenant")
	}
	if err := cf.Placement().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCountSuccessesOnly: before the fix the path counters were
// incremented before the placement attempt, counting failed admissions as
// successes.
func TestStatsCountSuccessesOnly(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cf.placeFault = failOnCall(1)
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.4}); err == nil {
		t.Fatal("regular fault did not surface")
	}
	cf.placeFault = failOnCall(1)
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.1}); err == nil {
		t.Fatal("tiny fault did not surface")
	}
	cf.placeFault = nil
	if s := cf.Stats(); s != (Stats{}) {
		t.Fatalf("failed admissions counted: %+v", s)
	}
	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.1}); err != nil {
		t.Fatal(err)
	}
	if s := cf.Stats(); s.RegularTenants != 1 || s.TinyTenants != 1 || s.FirstStageTenants != 0 {
		t.Fatalf("stats after successes: %+v", s)
	}
}

// TestAdmissionHook verifies the instrumentation callback reports the
// path actually taken, including rejections.
func TestAdmissionHook(t *testing.T) {
	cf, err := New(Config{Gamma: 2, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var paths []AdmissionPath
	cf.SetAdmissionHook(func(p AdmissionPath) { paths = append(paths, p) })

	if err := cf.Place(packing.Tenant{ID: 1, Load: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := cf.Place(packing.Tenant{ID: 2, Load: 0.1}); err != nil {
		t.Fatal(err)
	}
	cf.placeFault = failOnCall(1)
	if err := cf.Place(packing.Tenant{ID: 3, Load: 0.4}); err == nil {
		t.Fatal("fault did not surface")
	}
	cf.placeFault = nil
	if err := cf.Place(packing.Tenant{ID: 4, Load: 1.5}); err == nil {
		t.Fatal("invalid load accepted")
	}

	want := []AdmissionPath{AdmitRegular, AdmitTiny, AdmitRejected, AdmitRejected}
	if len(paths) != len(want) {
		t.Fatalf("paths %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths %v, want %v", paths, want)
		}
	}
	for p, s := range map[AdmissionPath]string{
		AdmitFirstStage: "first_stage", AdmitRegular: "regular",
		AdmitTiny: "tiny", AdmitRejected: "rejected", AdmissionPath(9): "path(9)",
	} {
		if p.String() != s {
			t.Fatalf("String(%d) = %q, want %q", int(p), p.String(), s)
		}
	}
}
