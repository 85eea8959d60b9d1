package obs

import (
	"fmt"
	"math"
	"slices"
)

// Op is one operation of the engine's input sequence, the unit the
// write-ahead log stores and recovery replays: an admission attempt with
// its outcome (Kind KindAdmit or KindReject) or a departure (KindDepart).
type Op struct {
	Kind   Kind
	Tenant int
	// Load and Clients are the tenant's, as its attempt carried them; a
	// departure carries neither.
	Load    float64
	Clients int
	// Hosts is the server of each replica of an admit, by replica index.
	Hosts []int
}

// OpFold assembles operations from a decision event stream. The stream's
// grammar is the one the engines emit under the controller's write lock:
// an attempt opens an admission; place-shaped events (place,
// stage1_place, cube_place) name the host of each replica; a rollback
// clears the hosts placed so far; an admit or reject closes the
// admission. Departures come between admissions. Every other kind is
// outside the grammar and ignored. This is the only place the grammar
// lives: the log writer folds the live stream through it, and recovery
// folds the events it reads back through it.
//
// The zero value is ready to use. OpFold allocates nothing in steady
// state; it is not safe for concurrent use.
type OpFold struct {
	op   Op
	open bool
}

// Next folds one event, which it does not keep. It returns the operation
// the event closes, or nil while none has closed. The returned Op, its
// Hosts included, is the fold's own and is overwritten by the next event.
// An event that breaks the grammar is an error: an attempt or departure
// inside an open admission, any other kind outside one or for another
// tenant, a place-shaped event that names no replica, an admit with a
// replica left unplaced, an admission whose load JSON cannot carry.
func (f *OpFold) Next(e *Event) (*Op, error) {
	if !inOpGrammar(e.Kind) {
		return nil, nil
	}
	return f.next(e)
}

// next is Next for an event of the grammar; the log, which drops every
// other kind before taking its lock, calls it directly.
func (f *OpFold) next(e *Event) (*Op, error) {
	op := &f.op
	// Attempts and departures arrive between operations; every other kind
	// belongs to the open admission of its tenant.
	between := e.Kind == KindAttempt || e.Kind == KindDepart
	if between == f.open || (f.open && e.Tenant != op.Tenant) {
		return nil, fmt.Errorf("%s event for tenant %d does not fit the open admission (open %v, tenant %d)",
			e.Kind, e.Tenant, f.open, op.Tenant)
	}
	switch e.Kind {
	case KindAttempt:
		*op = Op{Tenant: e.Tenant, Load: e.Size, Clients: e.Clients, Hosts: op.Hosts[:0]}
		f.open = true
		return nil, nil
	case KindPlace, KindStage1Place, KindCubePlace:
		if e.Replica < 0 {
			return nil, fmt.Errorf("%s event for tenant %d names no replica", e.Kind, e.Tenant)
		}
		for len(op.Hosts) <= e.Replica {
			op.Hosts = append(op.Hosts, Unset)
		}
		op.Hosts[e.Replica] = e.Server
		return nil, nil
	case KindRollback:
		op.Hosts = op.Hosts[:0]
		return nil, nil
	case KindDepart:
		*op = Op{Tenant: e.Tenant, Hosts: op.Hosts[:0]}
	}
	f.open = false
	op.Kind = e.Kind
	if err := op.check(); err != nil {
		return nil, err
	}
	return op, nil
}

// inOpGrammar reports whether events of kind k take part in the grammar
// OpFold folds.
func inOpGrammar(k Kind) bool {
	switch k {
	case KindAttempt, KindPlace, KindStage1Place, KindCubePlace, KindRollback, KindAdmit, KindReject, KindDepart:
		return true
	}
	return false
}

// check refuses a closed operation the log cannot hold: an admit without
// a host for every replica, or an admission whose load is not finite.
func (op *Op) check() error {
	if op.Kind == KindAdmit && (len(op.Hosts) == 0 || slices.Contains(op.Hosts, Unset)) {
		return fmt.Errorf("admit of tenant %d with replicas unplaced (hosts %v)", op.Tenant, op.Hosts)
	}
	if op.Kind != KindDepart && (math.IsNaN(op.Load) || math.IsInf(op.Load, 0)) {
		return fmt.Errorf("tenant %d has non-finite load %v", op.Tenant, op.Load)
	}
	return nil
}

// appendEvents appends the events op expands into, the smallest stream
// that folds back into it: an admit into its attempt (Tenant, Size,
// Clients), one KindPlace event per replica (Replica, Server) and the
// admit; a reject into the attempt and the reject; a depart into the
// depart alone.
func (op *Op) appendEvents(events []Event) []Event {
	if op.Kind != KindDepart {
		at := NewEvent(KindAttempt)
		at.Tenant, at.Size, at.Clients = op.Tenant, op.Load, op.Clients
		events = append(events, at)
	}
	if op.Kind == KindAdmit {
		for replica, server := range op.Hosts {
			pl := NewEvent(KindPlace)
			pl.Tenant, pl.Replica, pl.Server = op.Tenant, replica, server
			events = append(events, pl)
		}
	}
	closing := NewEvent(op.Kind)
	closing.Tenant = op.Tenant
	return append(events, closing)
}
