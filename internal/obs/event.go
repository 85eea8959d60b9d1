// Package obs is the decision flight recorder: a typed stream of
// placement-decision events emitted by the consolidation engines
// (internal/core, internal/rfi, internal/baseline) through a small
// Recorder interface.
//
// The engines hold a nil Recorder by default, so un-instrumented
// placements cost exactly one nil check per emission site and allocate
// nothing. With a recorder attached, every admission produces the full
// decision trail — admission attempt, first-stage probes, cube slot
// addresses with their base-τ digit expansion, bin lifecycle, rollbacks,
// and the final outcome — enough to reconstruct offline *why* each tenant
// landed where it did (see Decisions).
//
// Events are numbered and timestamped by whoever stores them, never by
// the engines, so algorithm code stays wall-clock free and the
// `wallclock` analyzer needs no new exemptions: the Stamp wrapper stamps
// each event through the clock seam (internal/clock) as it passes, and
// Ring.RecordBatch numbers a batch on from the ring's total under one
// time its caller read. The api controller buffers each mutation's
// events and delivers them once, after the engine call; offline tools
// (cubefit-sim) attach Stamp in front of a JSONL sink. The package
// depends only on the standard library and internal/clock /
// internal/trace.
package obs

import (
	"sync/atomic"
	"time"

	"cubefit/internal/clock"
)

// Kind identifies the type of a decision event.
type Kind string

// The event vocabulary. CubeFit emits the stage1_* and cube_* kinds; the
// single-stage engines (RFI, the naive baselines) emit probe and place.
// All engines share the admission lifecycle kinds.
const (
	// KindAttempt opens an admission: Tenant, Size (the tenant load).
	KindAttempt Kind = "attempt"
	// KindStage1Probe reports one first-stage Best Fit scan: Tenant,
	// Replica, Probes (mature bins actually subjected to the m-fit test,
	// in Best-Fit order up to the chosen bin — bins rejected by the cached
	// slack filter and subtrees pruned by the index's slack maxima
	// contribute nothing, so the count measures real m-fit work), Server
	// (the chosen bin, or -1 when no mature bin m-fits and the tenant
	// falls through to the second stage).
	KindStage1Probe Kind = "stage1_probe"
	// KindStage1Place reports a replica placed into a mature bin by the
	// first stage: Tenant, Replica, Server, Size, Level (server level
	// after placement).
	KindStage1Place Kind = "stage1_place"
	// KindProbe reports a single-stage engine's server scan: Tenant,
	// Replica, Probes (servers examined), Server (chosen, or -1 when a
	// fresh server must be opened).
	KindProbe Kind = "probe"
	// KindPlace reports a replica placed by a single-stage engine:
	// Tenant, Replica, Server, Size, Level.
	KindPlace Kind = "place"
	// KindCubePlace reports a replica placed at the cube cursor: Tenant,
	// Replica, Server, Slot, Class (τ), Tiny, Counter (the base-τ counter
	// value addressing the slot), Digits (its digit expansion, most
	// significant first), Size.
	KindCubePlace Kind = "cube_place"
	// KindCubeAdvance reports the cube cursor moving on: Class, Tiny,
	// Digits (the address just closed), Counter (the new counter value,
	// 0 after a wrap-around).
	KindCubeAdvance Kind = "cube_advance"
	// KindBinOpen reports a fresh server opened for a cube: Server,
	// Class, Tiny. Single-stage engines emit it with Class -1.
	KindBinOpen Kind = "bin_open"
	// KindBinMature reports a bin whose payload slots all closed: Server,
	// Class, Tiny, Level. The bin becomes a first-stage candidate.
	KindBinMature Kind = "bin_mature"
	// KindBinRetire reports a mature bin permanently pruned from the
	// first-stage candidate list for lack of usable slack: Server.
	KindBinRetire Kind = "bin_retire"
	// KindBinReactivate reports a retired bin regaining slack (after a
	// tenant departure) and rejoining the candidate list: Server.
	KindBinReactivate Kind = "bin_reactivate"
	// KindRollback reports an admission being unwound: Tenant, Reason.
	// A first-stage fallback emits it only when replicas were already
	// placed; a failed admission emits it before the reject.
	KindRollback Kind = "rollback"
	// KindAdmit closes a successful admission: Tenant, Path (the
	// admission-path label aggregated by core.Stats).
	KindAdmit Kind = "admit"
	// KindReject closes a failed admission: Tenant, Path ("rejected"),
	// Reason.
	KindReject Kind = "reject"
	// KindDepart reports a tenant removal: Tenant.
	KindDepart Kind = "depart"
)

// Unset marks an identity field (Tenant, Replica, Server, Slot, Class,
// Counter) that does not apply to an event.
const Unset = -1

// Event is one placement decision. Which fields are meaningful depends on
// Kind (see the Kind constants); identity fields that do not apply hold
// Unset. Seq and Time are assigned where the event is stored (Stamp,
// Ring.RecordBatch), not by engines.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Engine  string    `json:"engine,omitempty"`
	Kind    Kind      `json:"kind"`
	Tenant  int       `json:"tenant"`
	Replica int       `json:"replica"`
	Server  int       `json:"server"`
	Slot    int       `json:"slot"`
	Class   int       `json:"class"`
	Tiny    bool      `json:"tiny,omitempty"`
	Counter int       `json:"counter"`
	Digits  []int     `json:"digits,omitempty"`
	Size    float64   `json:"size,omitempty"`
	// Clients is the tenant's concurrent client count, carried on attempt
	// events so a replayed log reconstructs client routing exactly.
	Clients int     `json:"clients,omitempty"`
	Level   float64 `json:"level,omitempty"`
	Probes  int     `json:"probes,omitempty"`
	Path    string  `json:"path,omitempty"`
	Reason  string  `json:"reason,omitempty"`
}

// NewEvent returns an event of the given kind with every identity field
// initialized to Unset.
func NewEvent(kind Kind) Event {
	return Event{
		Kind:    kind,
		Tenant:  Unset,
		Replica: Unset,
		Server:  Unset,
		Slot:    Unset,
		Class:   Unset,
		Counter: Unset,
	}
}

// InferGamma returns the replication factor witnessed by an event log:
// one more than the largest replica index a place-shaped event (place,
// stage1_place, cube_place) put on a server, or 0 when the log places no
// replica. A γ-replicated engine addresses replicas 0..γ−1, so any log
// holding one fully admitted tenant yields γ; returning 0 rather than a
// guess on a log without placements lets callers tell "no evidence" from
// a mismatch.
func InferGamma(events []Event) int {
	gamma := 0
	for _, e := range events {
		switch e.Kind {
		case KindPlace, KindStage1Place, KindCubePlace:
			if e.Replica+1 > gamma {
				gamma = e.Replica + 1
			}
		}
	}
	return gamma
}

// Recorder consumes decision events. Implementations must be safe for the
// synchronization discipline of their caller: engines call Record
// synchronously from Place/Remove, the API layer under its write lock.
// The recorders in this package (JSONL, Stamp, WAL) are additionally
// safe for concurrent use on their own.
type Recorder interface {
	Record(Event)
}

// Nop is a Recorder that discards every event, for callers that need a
// non-nil recorder.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Record(Event) {}

// Stamp wraps next with sequence and timestamp assignment: every event
// gets the next value of a shared atomic counter (starting at 1) and the
// clock's current time before being forwarded. Stamping is the only place
// the flight recorder reads a clock, which keeps the engines themselves
// wall-clock free.
func Stamp(clk clock.Clock, next Recorder) Recorder {
	if next == nil {
		next = Nop
	}
	return &stamper{clk: clk, next: next}
}

type stamper struct {
	clk  clock.Clock
	next Recorder
	seq  atomic.Uint64
}

func (s *stamper) Record(e Event) {
	e.Seq = s.seq.Add(1)
	e.Time = s.clk.Now()
	s.next.Record(e)
}
