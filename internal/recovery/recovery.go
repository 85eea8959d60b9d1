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
//
// Replay is the one replay loop. Rebuild runs it on a fresh engine at
// boot; cubefit-inspect runs it on an engine with a recorder attached,
// which regenerates the decision stream the log was written from, so the
// log is the only stream the repository persists.
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

// Rebuild re-drives a fresh engine with the given configuration through
// the operations of the event log (Replay). The engine is built without a
// recorder attached, so recovery does not re-log history; callers attach
// sinks afterwards.
func Rebuild(events []obs.Event, cfg core.Config) (*core.CubeFit, Stats, error) {
	cf, err := core.New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Replay(cf, events, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return cf, st, nil
}

// Replay re-drives cf, an engine the caller built, through the
// operations of the event log, folding the events through obs.OpFold and
// replaying each operation as it closes. It fails at the first event the
// fold refuses or the first operation the engine replays differently
// from the log: an admit with other than γ hosts, an admit that replays
// rejected, a reject that replays admitted, or an admit that lands on
// other hosts than the ones logged. An admission whose attempt never
// closed, as a decision stream cut mid-admission ends, is not an
// operation and is left out.
//
// A recorder the caller attached to cf sees the decision stream the
// engine emitted when the log was written, seq and time aside, because
// the engine is deterministic. After each operation is applied, fn (when
// not nil) runs with the operation's 1-based ordinal and the operation,
// whose Hosts alias the fold's buffer until fn returns.
func Replay(cf *core.CubeFit, events []obs.Event, fn func(n int, op obs.Op)) (Stats, error) {
	st := Stats{Events: len(events)}
	gamma := cf.Config().Gamma
	var (
		fold  obs.OpFold
		hosts []int
		n     int // operations replayed, the current one included
	)
	for i := range events {
		op, err := fold.Next(&events[i])
		if err != nil {
			return Stats{}, fmt.Errorf("recovery: event %d: %w", i+1, err)
		}
		if op == nil {
			continue
		}
		n++
		id := packing.TenantID(op.Tenant)
		switch {
		case op.Kind == obs.KindDepart:
			if err := cf.Remove(id); err != nil {
				return Stats{}, fmt.Errorf("recovery: op %d: depart tenant %d: %w", n, id, err)
			}
			st.Departed++
		case op.Kind == obs.KindAdmit && len(op.Hosts) != gamma:
			return Stats{}, fmt.Errorf("recovery: op %d: log was written at γ=%d, engine configured with γ=%d", n, len(op.Hosts), gamma)
		default:
			err := cf.Place(packing.Tenant{ID: id, Load: op.Load, Clients: op.Clients})
			rejected := op.Kind == obs.KindReject
			switch {
			case err == nil && rejected:
				return Stats{}, fmt.Errorf("recovery: op %d: tenant %d was rejected in the log but replays as admitted", n, id)
			case err != nil && !rejected:
				return Stats{}, fmt.Errorf("recovery: op %d: tenant %d was admitted in the log but replays rejected: %w", n, id, err)
			case err != nil:
				st.Rejected++
			default:
				hosts = cf.Placement().TenantHostsInto(id, hosts)
				if !slices.Equal(hosts, op.Hosts) {
					return Stats{}, fmt.Errorf("recovery: op %d: tenant %d was logged on servers %v but replays on %v", n, id, op.Hosts, hosts)
				}
				st.Admitted++
			}
		}
		if fn != nil {
			fn(n, *op)
		}
	}
	return st, nil
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
