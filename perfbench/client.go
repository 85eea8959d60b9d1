package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cubefit/internal/packing"
)

// reqHeader carries the client's request number to the traced handler
// wrapper, which joins the two sides of one request. The controller
// ignores it; the untraced pass never sends it.
const reqHeader = "X-Perfbench-Req"

// client drives one service over loopback HTTP with at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // nil on the untraced pass
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: time.Minute}, tr: tr}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// call sends one request and reads the whole response into buf (reset
// first). It returns the status and the round-trip time in nanoseconds.
// A transport error is returned as is; the caller checks the status.
func (c *client) call(method, path string, body []byte, buf *bytes.Buffer, kind reqKind, first packing.TenantID, n int) (int, int64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var seq int64
	if c.tr != nil {
		seq = c.tr.nextReq()
		req.Header.Set(reqHeader, strconv.FormatInt(seq, 10))
	}
	start := wallNow()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	cerr := resp.Body.Close()
	rt := wallNow().Sub(start)
	if rerr != nil {
		return 0, 0, fmt.Errorf("%s %s: read body: %w", method, path, rerr)
	}
	if cerr != nil {
		return 0, 0, fmt.Errorf("%s %s: close body: %w", method, path, cerr)
	}
	if c.tr != nil {
		c.tr.clientDone(seq, kind, first, n, start, rt)
	}
	return resp.StatusCode, rt.Nanoseconds(), nil
}

// reqKind names what a request does, for joining engine spans to it.
type reqKind uint8

const (
	reqAdmit reqKind = iota
	reqDepart
	reqRead
)

// statusError reports a response that fails the correctness gate.
func statusError(method, path string, got, want int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, got, want, bytes.TrimSpace(body))
}

// batchBody appends {"tenants":[...]} for ts to dst[:0].
func batchBody(dst []byte, ts []packing.Tenant) []byte {
	dst = append(dst[:0], `{"tenants":[`...)
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = tenantJSON(dst, t)
	}
	return append(dst, "]}"...)
}

// tenantJSON appends one admission request; the service derives the load
// from the client count through its load model.
func tenantJSON(dst []byte, t packing.Tenant) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"clients":`...)
	dst = strconv.AppendInt(dst, int64(t.Clients), 10)
	return append(dst, '}')
}

// admitBatch posts ts to /v1/tenants:batch and checks that every item was
// admitted: the response must count them all as placed and carry a 201 for
// each.
func (c *client) admitBatch(ts []packing.Tenant, body []byte, buf *bytes.Buffer) ([]byte, int64, error) {
	const path = "/v1/tenants:batch"
	body = batchBody(body, ts)
	status, rt, err := c.call(http.MethodPost, path, body, buf, reqAdmit, ts[0].ID, len(ts))
	if err != nil {
		return body, 0, err
	}
	if status != http.StatusOK {
		return body, 0, statusError(http.MethodPost, path, status, http.StatusOK, buf.Bytes())
	}
	resp := buf.Bytes()
	prefix := `{"placed":` + strconv.Itoa(len(ts)) + `,"failed":0,`
	if !bytes.HasPrefix(resp, []byte(prefix)) || bytes.Count(resp, []byte(`"status":201`)) != len(ts) {
		return body, 0, fmt.Errorf("POST %s: not every item admitted: %.200s", path, resp)
	}
	return body, rt, nil
}

// admit posts one tenant to /v1/tenants and checks for 201.
func (c *client) admit(t packing.Tenant, body []byte, buf *bytes.Buffer) ([]byte, int64, error) {
	const path = "/v1/tenants"
	body = tenantJSON(body[:0], t)
	status, rt, err := c.call(http.MethodPost, path, body, buf, reqAdmit, t.ID, 1)
	if err != nil {
		return body, 0, err
	}
	if status != http.StatusCreated {
		return body, 0, statusError(http.MethodPost, path, status, http.StatusCreated, buf.Bytes())
	}
	return body, rt, nil
}

// depart deletes one tenant and checks for 204.
func (c *client) depart(id packing.TenantID, buf *bytes.Buffer) (int64, error) {
	path := "/v1/tenants/" + strconv.Itoa(int(id))
	status, rt, err := c.call(http.MethodDelete, path, nil, buf, reqDepart, id, 1)
	if err != nil {
		return 0, err
	}
	if status != http.StatusNoContent {
		return 0, statusError(http.MethodDelete, path, status, http.StatusNoContent, buf.Bytes())
	}
	return rt, nil
}

// serviceStats is the part of GET /v1/stats the gate reads.
type serviceStats struct {
	Tenants     int `json:"tenants"`
	UsedServers int `json:"usedServers"`
}

func (c *client) stats() (serviceStats, error) {
	var buf bytes.Buffer
	var st serviceStats
	status, _, err := c.call(http.MethodGet, "/v1/stats", nil, &buf, reqRead, 0, 0)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, statusError(http.MethodGet, "/v1/stats", status, http.StatusOK, buf.Bytes())
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

// validate requires GET /v1/validate to report the placement robust.
func (c *client) validate() error {
	var buf bytes.Buffer
	status, _, err := c.call(http.MethodGet, "/v1/validate", nil, &buf, reqRead, 0, 0)
	if err != nil {
		return err
	}
	var v struct {
		Robust bool   `json:"robust"`
		Error  string `json:"error"`
	}
	if jerr := json.Unmarshal(buf.Bytes(), &v); status != http.StatusOK || jerr != nil || !v.Robust {
		return fmt.Errorf("GET /v1/validate: status %d, placement not robust: %.200s", status, buf.Bytes())
	}
	return nil
}
