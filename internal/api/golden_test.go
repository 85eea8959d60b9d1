package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/recovery"
	"cubefit/internal/workload"
)

// Golden digests of TestLogAndEventStreamGolden's request sequence: the
// SHA-256 of the log file's bytes, and of the JSON encoding of the flight
// recorder's events with their time zeroed.
const (
	goldenLogSHA256    = "df7e6a2ac00d2ff2e73208d85d7ded73dcd5af6702c288d0f61992b70d9daad8"
	goldenEventsSHA256 = "00a6997a16f069f497b6d2188383e9a8aefe48227796cd2cba5a2fde6a83f3aa"
)

// goldenRequest is one step of the fixed request sequence and the status
// it must answer.
type goldenRequest struct {
	method, path string
	body         any
	status       int
}

// goldenSequence covers every way a request reaches (or stops short of)
// the engine and the log: single admissions by load and by clients,
// batches holding a duplicate id and an invalid load, a client count
// refused 422 on both endpoints, departures, and a departure of an
// unknown tenant.
func goldenSequence() []goldenRequest {
	var seq []goldenRequest
	place := func(id int, body map[string]any) {
		body["id"] = id
		seq = append(seq, goldenRequest{"POST", "/v1/tenants", body, http.StatusCreated})
	}
	for id := 1; id <= 24; id++ {
		if id%3 == 0 {
			place(id, map[string]any{"clients": 1 + id%15})
		} else {
			place(id, map[string]any{"load": 0.04 + 0.05*float64(id%9)})
		}
	}
	batch := func(first, n int) []map[string]any {
		out := make([]map[string]any, 0, n+3)
		for i := 0; i < n; i++ {
			id := first + i
			if i%4 == 0 {
				out = append(out, map[string]any{"id": id, "clients": 2 + i%13})
			} else {
				out = append(out, map[string]any{"id": id, "load": 0.03 + 0.07*float64(i%11)})
			}
		}
		// A duplicate of the batch's first id (409), an invalid load
		// (400) and a client count whose derived load exceeds 1 (422).
		out = append(out,
			map[string]any{"id": first, "load": 0.2},
			map[string]any{"id": first + n, "load": 1.5},
			map[string]any{"id": first + n + 1, "clients": 500})
		return out
	}
	batchReq := func(items []map[string]any) {
		seq = append(seq, goldenRequest{"POST", "/v1/tenants:batch", map[string]any{"tenants": items}, http.StatusOK})
	}
	batchReq(batch(100, 40))
	seq = append(seq, goldenRequest{"POST", "/v1/tenants", map[string]any{"id": 300, "clients": 500}, http.StatusUnprocessableEntity})
	for _, id := range []int{3, 7, 100, 117, 22} {
		seq = append(seq, goldenRequest{"DELETE", "/v1/tenants/" + strconv.Itoa(id), nil, http.StatusNoContent})
	}
	seq = append(seq, goldenRequest{"DELETE", "/v1/tenants/999", nil, http.StatusNotFound})
	batchReq(batch(200, 25))
	// Departed ids admitted again.
	place(3, map[string]any{"load": 0.61})
	place(100, map[string]any{"clients": 14})
	for _, id := range []int{1, 205} {
		seq = append(seq, goldenRequest{"DELETE", "/v1/tenants/" + strconv.Itoa(id), nil, http.StatusNoContent})
	}
	return seq
}

// TestLogAndEventStreamGolden drives a fixed request sequence through the
// HTTP handler with the log in a file, then pins the log's bytes and the
// flight recorder's events (time zeroed) by their SHA-256. It pins that
// the path events take to the log and the ring moves no record and no
// event.
func TestLogAndEventStreamGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	wal, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(cf, workload.DefaultLoadModel(), WithWAL(wal))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	for i, r := range goldenSequence() {
		var body bytes.Buffer
		if r.body != nil {
			if err := json.NewEncoder(&body).Encode(r.body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, &body))
		if rec.Code != r.status {
			t.Fatalf("request %d (%s %s): status %d, want %d: %s", i, r.method, r.path, rec.Code, r.status, rec.Body)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	events := c.ring.Last(-1)
	if total := c.ring.Total(); total != uint64(len(events)) || total == 0 {
		t.Fatalf("ring holds %d of %d events; the sequence must fit it", len(events), total)
	}
	for i := range events {
		if events[i].Time.IsZero() {
			t.Fatalf("event %d has no time", i)
		}
		events[i].Time = time.Time{}
	}
	encoded, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(log); got != goldenLogSHA256 {
		t.Errorf("log SHA-256 %s, want %s (%d bytes)", got, goldenLogSHA256, len(log))
	}
	if got := sha256Hex(encoded); got != goldenEventsSHA256 {
		t.Errorf("event stream SHA-256 %s, want %s (%d events)", got, goldenEventsSHA256, len(events))
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReplayedLogRegeneratesEventStream runs the golden request sequence,
// then replays its log through a fresh engine with a recorder attached,
// the loop cubefit-server boots through and cubefit-inspect explains
// from: the replay regenerates exactly the events the ring recorded, seq
// and time aside. This holds because the sequence has no failed commit;
// after one, the engine sees rollbacks that the log does not hold.
func TestReplayedLogRegeneratesEventStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	wal, err := obs.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(cf, workload.DefaultLoadModel(), WithWAL(wal))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	for i, r := range goldenSequence() {
		var body bytes.Buffer
		if r.body != nil {
			if err := json.NewEncoder(&body).Encode(r.body); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, &body))
		if rec.Code != r.status {
			t.Fatalf("request %d (%s %s): status %d, want %d: %s", i, r.method, r.path, rec.Code, r.status, rec.Body)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	live := c.ring.Last(-1)
	if total := c.ring.Total(); total != uint64(len(live)) || total == 0 {
		t.Fatalf("ring holds %d of %d events; the sequence must fit it", len(live), total)
	}
	for i := range live {
		live[i].Seq, live[i].Time = 0, time.Time{}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, torn, err := obs.ReadWAL(f)
	if err != nil || torn {
		t.Fatalf("ReadWAL: torn=%v err=%v", torn, err)
	}
	replayed, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var rec eventBuffer
	replayed.SetRecorder(&rec)
	if _, err := recovery.Replay(replayed, log, nil); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != len(live) {
		t.Fatalf("replay emitted %d events, the ring recorded %d", len(rec.events), len(live))
	}
	for i := range live {
		if !reflect.DeepEqual(rec.events[i], live[i]) {
			t.Fatalf("event %d: replayed %+v, recorded %+v", i, rec.events[i], live[i])
		}
	}
}
