package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/workload"
)

// FuzzPlaceBatchRequest posts arbitrary bodies to POST /v1/tenants:batch
// on one controller, whose placement carries over from input to input.
// The request is answered 200 or 400. A 200 carries one result per
// requested tenant, each 201, 400, 409 or 422, and its placed and failed
// counts partition them. The placement stays robust after every input.
func FuzzPlaceBatchRequest(f *testing.F) {
	var big strings.Builder
	big.WriteString(`{"tenants":[`)
	for i := 0; i <= maxBatchTenants; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"id":%d,"clients":1}`, 100000+i)
	}
	big.WriteString(`]}`)
	for _, seed := range []string{
		``,
		`{}`,
		`{"tenants":[]}`,
		`{"tenants":null}`,
		`{"tenants":[{"id":1,"load":0.3},{"id":2,"clients":8}]}`,
		`{"tenants":[{"id":3,"load":1.5},{"id":4,"load":-0.1},{"id":5,"clients":-2},{"id":6},{"id":7,"clients":1000000},{"id":-1,"load":0.2}]}`,
		`{"tenants":[{"id":8,"load":0.2},{"id":8,"load":0.3},{"id":1,"load":0.1}]}`,
		`{"tenants":[{"id":9,"load":"x"}]}`,
		`{"tenants":[{"id":10,"load":1}]} trailing`,
		`[1,2,3]`,
		big.String(),
	} {
		f.Add([]byte(seed))
	}
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	ctrl, err := NewController(cf, workload.DefaultLoadModel(), WithoutSpanTracing())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ctrl.Close() })
	h := ctrl.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants:batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			// The handler decodes the body's first JSON value; so does this.
			var req batchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body the handler cannot decode: %v", err)
			}
			var resp batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable 200 response: %v", err)
			}
			if len(resp.Results) != len(req.Tenants) {
				t.Fatalf("%d results for %d tenants", len(resp.Results), len(req.Tenants))
			}
			if resp.Placed+resp.Failed != len(resp.Results) {
				t.Fatalf("placed %d + failed %d != %d results", resp.Placed, resp.Failed, len(resp.Results))
			}
			placed := 0
			for i, r := range resp.Results {
				switch r.Status {
				case http.StatusCreated:
					placed++
				case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity:
				default:
					t.Fatalf("result %d: status %d", i, r.Status)
				}
			}
			if placed != resp.Placed {
				t.Fatalf("placed %d, but %d results are 201", resp.Placed, placed)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/validate", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("placement not robust after the input: %s", rec.Body.Bytes())
		}
	})
}
