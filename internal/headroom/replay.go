package headroom

import (
	"fmt"

	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// Point is one sample of a replayed headroom time series, taken after an
// admission closes (admit or reject) or a tenant departs.
type Point struct {
	// Seq is the stamped sequence number of the closing event (0 for
	// unstamped logs).
	Seq uint64 `json:"seq"`
	// Kind is the closing event kind (admit, reject, depart).
	Kind obs.Kind `json:"kind"`
	// Tenant is the tenant whose admission or departure closed.
	Tenant int `json:"tenant"`
	// Tenants and Servers are the placement population after the event.
	Tenants int `json:"tenants"`
	Servers int `json:"servers"`
	// MinSlack and MinServer are the worst-case headroom at this point.
	MinSlack  float64 `json:"minSlack"`
	MinServer int     `json:"minServer"`
	// BelowRedLine and Overloaded are the aggregate counts at this point.
	BelowRedLine int `json:"belowRedLine"`
	Overloaded   int `json:"overloaded"`
}

// Replay reconstructs the placement mutations of a decision event log
// (the JSONL written by `cubefit-sim -events` or dumped from
// GET /debug/events) against a fresh placement with the given replication
// factor (<= 0 infers it via obs.InferGamma; a log that places nothing
// replays at γ=1), feeding an incremental Auditor as it goes. After every
// closed admission and every departure it calls fn with the headroom
// sample at that point (fn may be nil). It returns the final placement
// and auditor state.
//
// The replay applies the same state transitions the engines perform:
// place-shaped events place replicas (opening servers as needed),
// rollback and reject unwind the tenant's placed replicas, depart removes
// the tenant. Logs from engines that leave partial placements behind on
// failure (RFI) replay to the same partial state.
func Replay(events []obs.Event, gamma int, redline float64, fn func(Point)) (*packing.Placement, *Auditor, error) {
	if gamma <= 0 {
		gamma = max(obs.InferGamma(events), 1)
	}
	p, err := packing.NewPlacement(gamma)
	if err != nil {
		return nil, nil, err
	}
	a := New(p, redline)
	for i, e := range events {
		// Mirror the engines' emit ordering: unwind-shaped events are
		// recorded while the hosts losing replicas are still in the
		// placement; placement-shaped events after the replica landed.
		unwind := e.Kind == obs.KindRollback || e.Kind == obs.KindDepart
		if unwind {
			a.Record(e)
		}
		if err := applyEvent(p, e); err != nil {
			return nil, nil, fmt.Errorf("headroom: replaying event %d (%s): %w", i+1, e.Kind, err)
		}
		if !unwind {
			a.Record(e)
		}
		if fn == nil {
			continue
		}
		switch e.Kind {
		case obs.KindAdmit, obs.KindReject, obs.KindDepart:
			min, _ := a.Min()
			_, below, overloaded, _ := a.Aggregates()
			fn(Point{
				Seq:          e.Seq,
				Kind:         e.Kind,
				Tenant:       e.Tenant,
				Tenants:      p.NumTenants(),
				Servers:      p.NumServers(),
				MinSlack:     min.Slack,
				MinServer:    min.Server,
				BelowRedLine: below,
				Overloaded:   overloaded,
			})
		}
	}
	return p, a, nil
}

// applyEvent applies one event's placement mutation. Events that carry no
// placement change (probes, bin retire/reactivate, cube advances) are
// ignored.
func applyEvent(p *packing.Placement, e obs.Event) error {
	switch e.Kind {
	case obs.KindAttempt:
		// Size on the attempt is the tenant load, Clients its client count.
		// Re-registration of an identical tenant (a duplicate admission
		// attempt) is idempotent; the engine's reject closes it without
		// further mutation.
		t := packing.Tenant{ID: packing.TenantID(e.Tenant), Load: e.Size, Clients: e.Clients}
		if _, known := p.Tenant(t.ID); known {
			return nil
		}
		if t.Validate() != nil {
			// The engine rejected this attempt at validation; the reject
			// event closes it without any placement state to undo.
			return nil
		}
		return p.AddTenant(t)
	case obs.KindBinOpen:
		// Servers can open and stay empty (an RFI admission rejected as
		// infeasible); honoring bin_open keeps the replayed server
		// population identical to the live one.
		for p.NumServers() <= e.Server {
			p.OpenServer()
		}
		return nil
	case obs.KindPlace, obs.KindStage1Place, obs.KindCubePlace:
		for p.NumServers() <= e.Server {
			p.OpenServer()
		}
		// Place events carry no client count; recover it from the attempt's
		// registration with the engines' round-robin split, so replayed
		// placements match live trace.Capture snapshots byte for byte.
		clients := 0
		if t, ok := p.Tenant(packing.TenantID(e.Tenant)); ok {
			clients = packing.ReplicaClients(t.Clients, p.Gamma(), e.Replica)
		}
		return p.Place(e.Server, packing.Replica{
			Tenant:  packing.TenantID(e.Tenant),
			Index:   e.Replica,
			Size:    e.Size,
			Clients: clients,
		})
	case obs.KindRollback:
		// A rollback only unplaces: a first-stage retreat keeps the
		// tenant registered and continues into cube placement; an
		// admission rollback is followed by a reject, which completes
		// the removal below.
		return unplaceAll(p, e.Tenant)
	case obs.KindReject:
		// A rejection closing a rolled-back admission finds the tenant
		// registered but unplaced and forgets it; a rejection of a
		// duplicate attempt must leave the original admission — with its
		// placed replicas — in place.
		return unregisterIfUnplaced(p, e.Tenant)
	case obs.KindDepart:
		return removeIfKnown(p, e.Tenant)
	}
	return nil
}

// unplaceAll unplaces every placed replica of the tenant, keeping its
// registration; unknown tenants are tolerated.
func unplaceAll(p *packing.Placement, tenant int) error {
	id := packing.TenantID(tenant)
	for idx, h := range p.TenantHosts(id) {
		if h < 0 {
			continue
		}
		if err := p.Unplace(id, idx); err != nil {
			return err
		}
	}
	return nil
}

// removeIfKnown removes a tenant, tolerating one that is already gone.
func removeIfKnown(p *packing.Placement, tenant int) error {
	id := packing.TenantID(tenant)
	if _, known := p.Tenant(id); !known {
		return nil
	}
	return p.RemoveTenant(id)
}

// unregisterIfUnplaced forgets a registered tenant that has no placed
// replicas (the bookkeeping left by a rejected admission's attempt).
func unregisterIfUnplaced(p *packing.Placement, tenant int) error {
	id := packing.TenantID(tenant)
	hosts := p.TenantHosts(id)
	if hosts == nil {
		return nil
	}
	for _, h := range hosts {
		if h >= 0 {
			return nil // placed replicas: the surviving original admission
		}
	}
	return p.RemoveTenant(id)
}
