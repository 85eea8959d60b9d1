// Package recovery rebuilds a consolidation engine from its write-ahead
// decision log (the internal/obs JSONL stream persisted by the service
// layer's group-commit WAL sink), promoting the event-replay machinery
// from audit tooling to the crash-recovery path of cubefit-server.
//
// Recovery re-drives a fresh engine through the exact admission sequence
// the log records — every committed attempt (including rejected ones,
// whose failed admissions still open servers) and every departure, in
// log order. Because the engines are deterministic, the rebuilt engine
// reproduces the pre-crash placement, cube cursors, bin lifecycle, and
// Stats byte for byte. Attempts whose closing admit/reject never reached
// stable storage were never acked to a client, so they are dropped: the
// recovered state is exactly the acked state.
//
// Verify cross-checks the re-driven engine against an independent
// event-level reconstruction (headroom.Replay applies each place/rollback
// event directly) and the robustness validator, so a server refuses to
// serve from a log that does not replay cleanly.
package recovery

import (
	"errors"
	"fmt"
	"os"
	"reflect"

	"cubefit/internal/core"
	"cubefit/internal/headroom"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/trace"
)

// Stats summarizes one recovery for operator logging.
type Stats struct {
	// Events is the number of committed events replayed.
	Events int
	// Admitted, Rejected and Departed count the re-driven operations.
	Admitted int
	Rejected int
	Departed int
	// Dropped counts trailing events discarded because their admission
	// never committed (no admit/reject reached the log).
	Dropped int
	// Torn reports that the log ended in a truncated record (a crash
	// mid-write); the torn tail is discarded like any uncommitted suffix.
	Torn bool
	// CommittedBytes is the byte offset of the end of the last committed
	// record in the log file (0 when nothing committed). Everything past
	// it — dropped complete lines and any torn tail — was never acked and
	// must be truncated (obs.TruncateWAL) before the server appends new
	// records, or the next boot reads an interleaved log.
	CommittedBytes int64
}

// op is one serialized engine operation extracted from the log.
type op struct {
	remove  bool
	tenant  packing.Tenant // place ops
	id      packing.TenantID
	wantErr bool // the original admission was rejected
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
	cf, st, err := Rebuild(events, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st.Torn = torn
	// Rebuild set Events to the committed-prefix length, so the end offset
	// of the last committed record is the byte size the log must shrink to
	// before it is reopened for append.
	if st.Events > 0 {
		st.CommittedBytes = ends[st.Events-1]
	}
	if err := Verify(cf, events); err != nil {
		return nil, Stats{}, err
	}
	return cf, st, nil
}

// Rebuild re-drives a fresh engine through the committed operations of
// the event log. The engine is built without a recorder attached, so
// recovery does not re-log history; callers attach sinks afterwards.
func Rebuild(events []obs.Event, cfg core.Config) (*core.CubeFit, Stats, error) {
	cf, err := core.New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	committed := CommittedPrefix(events)
	st := Stats{Events: len(committed), Dropped: len(events) - len(committed)}
	if n := obs.InferGamma(committed); n > 0 && n != cf.Config().Gamma {
		return nil, Stats{}, fmt.Errorf("recovery: log was written at γ=%d, engine configured with γ=%d", n, cf.Config().Gamma)
	}
	ops, err := extractOps(committed)
	if err != nil {
		return nil, Stats{}, err
	}
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
		default:
			st.Admitted++
		}
	}
	return cf, st, nil
}

// CommittedPrefix trims the log to its last committed operation: the
// suffix after the final admit, reject, or depart belongs to an admission
// that never acked and is discarded.
func CommittedPrefix(events []obs.Event) []obs.Event {
	for i := len(events) - 1; i >= 0; i-- {
		switch events[i].Kind {
		case obs.KindAdmit, obs.KindReject, obs.KindDepart:
			return events[:i+1]
		}
	}
	return nil
}

// extractOps linearizes a committed log into engine operations. The
// service layer serializes admissions under one write lock, so each
// admission's events are contiguous: an attempt opens, its admit or
// reject closes.
func extractOps(events []obs.Event) ([]op, error) {
	var (
		ops     []op
		open    bool
		pending packing.Tenant
	)
	for i, e := range events {
		switch e.Kind {
		case obs.KindAttempt:
			if open {
				return nil, fmt.Errorf("recovery: event %d: attempt for tenant %d interleaves with open admission of tenant %d", i+1, e.Tenant, pending.ID)
			}
			open = true
			pending = packing.Tenant{ID: packing.TenantID(e.Tenant), Load: e.Size, Clients: e.Clients}
		case obs.KindAdmit, obs.KindReject:
			if !open || int(pending.ID) != e.Tenant {
				return nil, fmt.Errorf("recovery: event %d: %s for tenant %d without matching attempt", i+1, e.Kind, e.Tenant)
			}
			ops = append(ops, op{tenant: pending, wantErr: e.Kind == obs.KindReject})
			open = false
		case obs.KindDepart:
			if open {
				return nil, fmt.Errorf("recovery: event %d: depart of tenant %d interleaves with open admission of tenant %d", i+1, e.Tenant, pending.ID)
			}
			ops = append(ops, op{remove: true, id: packing.TenantID(e.Tenant)})
		}
	}
	return ops, nil
}

// Verify cross-checks a rebuilt engine against the log it was rebuilt
// from: the placement must satisfy the robustness validator, and it must
// equal — snapshot for snapshot — an independent event-level replay that
// applies each recorded placement mutation directly rather than
// re-driving the algorithm.
func Verify(cf *core.CubeFit, events []obs.Event) error {
	if err := cf.Placement().Validate(); err != nil {
		return fmt.Errorf("recovery: rebuilt placement fails validation: %w", err)
	}
	committed := CommittedPrefix(events)
	replayed, _, err := headroom.Replay(committed, cf.Config().Gamma, 0, nil)
	if err != nil {
		return fmt.Errorf("recovery: event-level replay: %w", err)
	}
	got := trace.Capture(cf.Placement())
	want := trace.Capture(replayed)
	if !reflect.DeepEqual(got, want) {
		return errors.New("recovery: re-driven engine and event-level replay disagree; refusing to serve from this log")
	}
	return nil
}
