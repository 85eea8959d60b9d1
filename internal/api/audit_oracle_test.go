package api

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/rfi"
	"cubefit/internal/workload"
)

// syncSwitch stands in for a log file whose fsync fails once fail is set;
// its writes keep succeeding, so the failure is the sync's alone.
type syncSwitch struct {
	bytes.Buffer
	fail bool
}

func (s *syncSwitch) Sync() error {
	if s.fail {
		return errors.New("fsync failed")
	}
	return nil
}

// checkAudit asserts that the controller's incremental audit equals the
// exhaustive rescan of the placement as it stands after a mutation.
func checkAudit(t *testing.T, c *Controller, after string) {
	t.Helper()
	c.mu.RLock()
	got := c.auditor.Report()
	want := headroom.Exhaustive(c.alg.Placement(), got.RedLine)
	c.mu.RUnlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after %s: audit diverged from the exhaustive rescan\n got: %+v\nwant: %+v", after, got, want)
	}
}

// placeTenants runs one job of the given tenants through the placer's commit
// path and returns each item's status.
func placeTenants(c *Controller, tenants ...packing.Tenant) []int {
	job := &admitJob{items: make([]admitItem, len(tenants))}
	for i, tn := range tenants {
		job.items[i].tenant = tn
	}
	c.placeJobs([]*admitJob{job})
	status := make([]int, len(tenants))
	for i := range job.items {
		status[i] = job.items[i].status
	}
	return status
}

// deleteTenant sends DELETE /v1/tenants/{id} through the controller's
// handler and returns the status.
func deleteTenant(c *Controller, id packing.TenantID) int {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/tenants/"+strconv.Itoa(int(id)), nil))
	return rec.Code
}

// walController returns a controller over a fresh CubeFit engine whose
// log syncs through sw, and the source of its tenants.
func walController(t *testing.T, sw *syncSwitch) (*Controller, *workload.ClientSource) {
	t.Helper()
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(cf, workload.DefaultLoadModel(), WithWAL(obs.NewWAL(sw)), WithoutSpanTracing())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	dist, err := workload.NewUniform(1, 15)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewClientSource(workload.DefaultLoadModel(), dist, 11)
	if err != nil {
		t.Fatal(err)
	}
	return c, src
}

// firstStageFallbacks counts the first-stage fallbacks that had placed
// replicas before rolling back, as the ring recorded them.
func firstStageFallbacks(c *Controller) int {
	n := 0
	for _, e := range c.ring.Last(-1) {
		if e.Kind == obs.KindRollback && strings.HasPrefix(e.Reason, "first-stage fallback") {
			n++
		}
	}
	return n
}

// TestAuditMatchesExhaustiveAfterEveryMutation holds the controller's
// incremental headroom audit to the exhaustive rescan after every kind of
// mutation the controller makes: an admission batch, a first-stage
// fallback with rollback, a failed admission that opened servers, a
// departure, a batch rolled back after its sync failed, and a departure
// refused after its sync failed, which leaves its tenant on its hosts.
// The departing tenants' hosts are gone from the placement once Remove
// returns, so the audit is right only if the controller marks them before
// the removal.
func TestAuditMatchesExhaustiveAfterEveryMutation(t *testing.T) {
	t.Run("cubefit", func(t *testing.T) {
		sw := &syncSwitch{}
		c, src := walController(t, sw)
		batch := make([]packing.Tenant, 64)
		for i := range batch {
			batch[i] = src.Next()
		}
		for i, st := range placeTenants(c, batch...) {
			if st != http.StatusCreated {
				t.Fatalf("batch item %d: status %d", i, st)
			}
		}
		checkAudit(t, c, "an admission batch")

		// Single admissions until a first-stage fallback has rolled back
		// placed replicas.
		for i := 0; firstStageFallbacks(c) == 0; i++ {
			if i == 5000 {
				t.Fatal("no first-stage fallback with rollback in 5000 admissions")
			}
			tn := src.Next()
			if st := placeTenants(c, tn); st[0] != http.StatusCreated {
				t.Fatalf("tenant %d: status %d", tn.ID, st[0])
			}
			checkAudit(t, c, "admission of tenant "+strconv.Itoa(int(tn.ID)))
		}

		if code := deleteTenant(c, batch[5].ID); code != http.StatusNoContent {
			t.Fatalf("departure: status %d", code)
		}
		checkAudit(t, c, "a departure")

		hosts := c.alg.Placement().TenantHosts(batch[9].ID)
		sw.fail = true
		if code := deleteTenant(c, batch[9].ID); code != http.StatusServiceUnavailable {
			t.Fatalf("departure with a failing sync: status %d, want 503", code)
		}
		if got := c.alg.Placement().TenantHosts(batch[9].ID); !reflect.DeepEqual(got, hosts) {
			t.Fatalf("the departure answered 503 moved its tenant from servers %v to %v", hosts, got)
		}
		checkAudit(t, c, "a departure refused after its sync failed")
	})

	t.Run("rolled-back-batch", func(t *testing.T) {
		sw := &syncSwitch{}
		c, src := walController(t, sw)
		for i := 0; i < 4; i++ {
			batch := make([]packing.Tenant, 64)
			for j := range batch {
				batch[j] = src.Next()
			}
			placeTenants(c, batch...)
		}
		checkAudit(t, c, "four admission batches")
		sw.fail = true
		batch := make([]packing.Tenant, 64)
		for i := range batch {
			batch[i] = src.Next()
		}
		for i, st := range placeTenants(c, batch...) {
			if st != http.StatusServiceUnavailable {
				t.Fatalf("item %d of a batch whose sync failed: status %d, want 503", i, st)
			}
		}
		if n := c.alg.Placement().NumTenants(); n != 4*64 {
			t.Fatalf("%d tenants after the rollback, want %d", n, 4*64)
		}
		checkAudit(t, c, "a batch rolled back after its sync failed")
	})

	t.Run("failed-admission-opened-servers", func(t *testing.T) {
		// RFI refuses a replica larger than μ even on an empty server,
		// after opening that server.
		eng, err := rfi.New(rfi.Config{Gamma: 2, Mu: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(eng, workload.DefaultLoadModel(), WithoutSpanTracing())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for id := packing.TenantID(1); id <= 20; id++ {
			if st := placeTenants(c, packing.Tenant{ID: id, Load: 0.05 + 0.02*float64(id%5)}); st[0] != http.StatusCreated {
				t.Fatalf("tenant %d: status %d", id, st[0])
			}
		}
		checkAudit(t, c, "twenty admissions")
		before := eng.Placement().NumServers()
		if st := placeTenants(c, packing.Tenant{ID: 99, Load: 0.8}); st[0] != http.StatusUnprocessableEntity {
			t.Fatalf("oversized tenant: status %d, want 422", st[0])
		}
		if eng.Placement().NumServers() == before {
			t.Fatal("the failed admission opened no server")
		}
		checkAudit(t, c, "a failed admission that opened servers")
	})
}
