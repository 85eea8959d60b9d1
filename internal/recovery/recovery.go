// Package recovery rebuilds a consolidation engine from its write-ahead
// operation log (the internal/obs WAL the service layer group-commits),
// which makes the log the crash-recovery path of cubefit-server.
//
// The log holds the input sequence, one record per operation: every
// admission attempt with its outcome (including rejected ones, whose
// failed admissions still open servers) and every departure, in the order
// they reached the engine. A record is written only once its operation
// has closed, so every complete record is committed. Recovery re-drives a
// fresh engine through the records; because the engines are
// deterministic, the rebuilt engine reproduces the pre-crash placement,
// cube cursors, bin lifecycle, and Stats byte for byte. A torn final
// record belongs to an operation that was never acked and is dropped: the
// recovered state is exactly the acked state.
//
// Rebuild checks each replayed admission against the hosts its record
// logged and Verify runs the robustness validator, so a server refuses to
// serve from a log that does not replay to the placement it recorded.
package recovery

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// Stats summarizes one recovery for operator logging.
type Stats struct {
	// Events is the number of decoded log events replayed.
	Events int
	// Admitted, Rejected and Departed count the re-driven operations.
	Admitted int
	Rejected int
	Departed int
	// Torn reports that the log ended in a truncated record (a crash
	// mid-write); the torn tail is discarded.
	Torn bool
	// CommittedBytes is the byte offset of the end of the last complete
	// record in the log file, or of the format header when no record
	// follows it (0 when not even the header is complete). Everything
	// past it is a torn record that was never acked and must be truncated
	// (obs.TruncateWAL) before the server appends new records, or the next
	// boot reads a corrupt line.
	CommittedBytes int64
}

// op is one serialized engine operation extracted from the log.
type op struct {
	remove  bool
	tenant  packing.Tenant // place ops
	id      packing.TenantID
	wantErr bool  // the original admission was rejected
	hosts   []int // the logged host of each replica of an admission
}

// FromFile reads the write-ahead log at path, rebuilds an engine with the
// given configuration, and verifies the result before returning it. A
// missing file is not an error: recovery of an empty log returns a fresh
// engine.
func FromFile(path string, cfg core.Config) (*core.CubeFit, Stats, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		cf, nerr := core.New(cfg)
		return cf, Stats{}, nerr
	}
	if err != nil {
		return nil, Stats{}, fmt.Errorf("recovery: %w", err)
	}
	//cubefit:vet-allow failclosed -- handle opened read-only; closing it cannot lose acknowledged bytes
	defer f.Close()
	events, ends, torn, err := obs.ReadWALOffsets(f)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("recovery: %w", err)
	}
	var committed int64
	if n := len(ends); n > 0 {
		committed = ends[n-1]
	} else if fi, err := f.Stat(); err != nil {
		return nil, Stats{}, fmt.Errorf("recovery: %w", err)
	} else if fi.Size() >= int64(len(obs.WALHeader)) {
		// The reader accepted the log, so it starts with a whole header.
		committed = int64(len(obs.WALHeader))
	}
	cf, st, err := Rebuild(events, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st.Torn, st.CommittedBytes = torn, committed
	if err := Verify(cf, events); err != nil {
		return nil, Stats{}, err
	}
	return cf, st, nil
}

// Rebuild re-drives a fresh engine through the operations of the event
// log and fails at the first admission the engine replays differently
// from the log: an admit that replays rejected, a reject that replays
// admitted, or an admit that lands on other hosts than the ones logged.
// The engine is built without a recorder attached, so recovery does not
// re-log history; callers attach sinks afterwards.
func Rebuild(events []obs.Event, cfg core.Config) (*core.CubeFit, Stats, error) {
	cf, err := core.New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{Events: len(events)}
	if n := obs.InferGamma(events); n > 0 && n != cf.Config().Gamma {
		return nil, Stats{}, fmt.Errorf("recovery: log was written at γ=%d, engine configured with γ=%d", n, cf.Config().Gamma)
	}
	ops, err := extractOps(events)
	if err != nil {
		return nil, Stats{}, err
	}
	var hosts []int
	for i, o := range ops {
		if o.remove {
			if err := cf.Remove(o.id); err != nil {
				return nil, Stats{}, fmt.Errorf("recovery: op %d: depart tenant %d: %w", i+1, o.id, err)
			}
			st.Departed++
			continue
		}
		err := cf.Place(o.tenant)
		switch {
		case err == nil && o.wantErr:
			return nil, Stats{}, fmt.Errorf("recovery: op %d: tenant %d was rejected in the log but replays as admitted", i+1, o.tenant.ID)
		case err != nil && !o.wantErr:
			return nil, Stats{}, fmt.Errorf("recovery: op %d: tenant %d was admitted in the log but replays rejected: %w", i+1, o.tenant.ID, err)
		case err != nil:
			st.Rejected++
			continue
		}
		hosts = cf.Placement().TenantHostsInto(o.tenant.ID, hosts)
		if !slices.Equal(hosts, o.hosts) {
			return nil, Stats{}, fmt.Errorf("recovery: op %d: tenant %d was logged on servers %v but replays on %v", i+1, o.tenant.ID, o.hosts, hosts)
		}
		st.Admitted++
	}
	return cf, st, nil
}

// extractOps linearizes a log into engine operations. The service layer
// serializes admissions under one write lock, so each admission's events
// are contiguous: an attempt opens, place events name the host of each
// replica (a rollback clears them), and the admit or reject closes. A
// trailing attempt that never closed is not an operation.
func extractOps(events []obs.Event) ([]op, error) {
	var (
		ops     []op
		open    bool
		pending op
	)
	for i, e := range events {
		switch e.Kind {
		case obs.KindAttempt:
			if open {
				return nil, fmt.Errorf("recovery: event %d: attempt for tenant %d interleaves with open admission of tenant %d", i+1, e.Tenant, pending.tenant.ID)
			}
			open = true
			pending = op{tenant: packing.Tenant{ID: packing.TenantID(e.Tenant), Load: e.Size, Clients: e.Clients}}
		case obs.KindPlace, obs.KindStage1Place, obs.KindCubePlace:
			if !open || int(pending.tenant.ID) != e.Tenant || e.Replica < 0 {
				return nil, fmt.Errorf("recovery: event %d: %s for tenant %d outside its admission", i+1, e.Kind, e.Tenant)
			}
			for len(pending.hosts) <= e.Replica {
				pending.hosts = append(pending.hosts, obs.Unset)
			}
			pending.hosts[e.Replica] = e.Server
		case obs.KindRollback:
			if open {
				pending.hosts = pending.hosts[:0]
			}
		case obs.KindAdmit, obs.KindReject:
			if !open || int(pending.tenant.ID) != e.Tenant {
				return nil, fmt.Errorf("recovery: event %d: %s for tenant %d without matching attempt", i+1, e.Kind, e.Tenant)
			}
			pending.wantErr = e.Kind == obs.KindReject
			ops = append(ops, pending)
			open = false
		case obs.KindDepart:
			if open {
				return nil, fmt.Errorf("recovery: event %d: depart of tenant %d interleaves with open admission of tenant %d", i+1, e.Tenant, pending.tenant.ID)
			}
			ops = append(ops, op{remove: true, id: packing.TenantID(e.Tenant)})
		}
	}
	return ops, nil
}

// Verify checks a rebuilt engine before it serves: its placement must
// satisfy the robustness validator. Rebuild has already compared every
// replayed admission with the hosts the log recorded, so the events are
// not consulted again; the parameter keeps the read, rebuild, verify
// sequence of FromFile available to callers that time each step.
func Verify(cf *core.CubeFit, _ []obs.Event) error {
	if err := cf.Placement().Validate(); err != nil {
		return fmt.Errorf("recovery: rebuilt placement fails validation: %w", err)
	}
	return nil
}
