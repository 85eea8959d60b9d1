package obs_test

import (
	"bytes"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/recovery"
)

// TestWALFailsClosedOnMismatch: an event that does not fit the open
// admission sets the log's sticky error instead of writing a wrong
// operation, and recovery, which folds its events through the same
// grammar, refuses the same stream.
func TestWALFailsClosedOnMismatch(t *testing.T) {
	attempt := func(tenant int) obs.Event {
		e := obs.NewEvent(obs.KindAttempt)
		e.Tenant, e.Size = tenant, 0.2
		return e
	}
	closing := func(kind obs.Kind, tenant int) obs.Event {
		e := obs.NewEvent(kind)
		e.Tenant = tenant
		return e
	}
	place := func(tenant, replica, server int) obs.Event {
		e := obs.NewEvent(obs.KindStage1Place)
		e.Tenant, e.Replica, e.Server = tenant, replica, server
		return e
	}
	for name, events := range map[string][]obs.Event{
		"admit for another tenant":  {attempt(1), place(1, 0, 0), place(1, 1, 2), closing(obs.KindAdmit, 2)},
		"reject for another tenant": {attempt(1), closing(obs.KindReject, 2)},
		"admit without attempt":     {closing(obs.KindAdmit, 1)},
		"reject without attempt":    {closing(obs.KindReject, 1)},
		"attempt inside attempt":    {attempt(1), attempt(2)},
		"depart inside attempt":     {attempt(1), closing(obs.KindDepart, 1)},
		"place for another tenant":  {attempt(1), place(2, 0, 0)},
		"place without a replica":   {attempt(1), place(1, obs.Unset, 0)},
		"admit with no replica":     {attempt(1), closing(obs.KindAdmit, 1)},
		"admit with a replica gap":  {attempt(1), place(1, 1, 4), closing(obs.KindAdmit, 1)},
		"admit after a rollback":    {attempt(1), place(1, 0, 0), closing(obs.KindRollback, 1), closing(obs.KindAdmit, 1)},
	} {
		if _, _, err := recovery.Rebuild(events, core.Config{Gamma: 2, K: 10}); err == nil {
			t.Errorf("%s: Rebuild accepted the stream", name)
		}
		var buf bytes.Buffer
		w := obs.NewWAL(&buf)
		for _, e := range events {
			w.Record(e)
		}
		if w.Err() == nil || !w.Failed() {
			t.Errorf("%s: no sticky error (Failed=%v)", name, w.Failed())
			continue
		}
		if err := w.Sync(); err == nil {
			t.Errorf("%s: Sync succeeded", name)
		}
		if w.Count() != 0 || buf.Len() != 0 {
			t.Errorf("%s: %d records, %d bytes written", name, w.Count(), buf.Len())
		}
	}
}
