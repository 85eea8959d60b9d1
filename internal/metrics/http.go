package metrics

import (
	"io"
	"net/http"
	"strconv"
	"time"
)

// DefaultLatencyBuckets spans sub-millisecond in-memory placements up to
// multi-second failure drills (seconds).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// HTTPMetrics records per-route request counts (by method and status
// class) and latency histograms.
type HTTPMetrics struct {
	requests *CounterVec
	latency  *HistogramVec
}

// NewHTTPMetrics registers the HTTP metric families on the registry.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.NewCounterVec("cubefit_http_requests_total",
			"HTTP requests by route, method, and status class.",
			"route", "method", "code"),
		latency: r.NewHistogramVec("cubefit_http_request_duration_seconds",
			"HTTP request latency by route.",
			[]string{"route"}, DefaultLatencyBuckets...),
	}
}

// Instrument wraps a handler, recording its requests under the given route
// name. Routes are named explicitly (rather than by URL path) so that
// path parameters like tenant IDs do not explode label cardinality.
func (m *HTTPMetrics) Instrument(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ww, rec := WrapResponseWriter(w)
		next.ServeHTTP(ww, r)
		m.requests.With(route, r.Method, statusClass(rec.Code)).Inc()
		m.latency.With(route).Observe(time.Since(start).Seconds())
	})
}

// StatusRecorder captures the response status code written by a handler
// (defaulting to 200 when the handler never calls WriteHeader).
type StatusRecorder struct {
	http.ResponseWriter
	Code int
}

// WriteHeader records the status and forwards it.
func (r *StatusRecorder) WriteHeader(code int) {
	r.Code = code
	r.ResponseWriter.WriteHeader(code)
}

// WrapResponseWriter wraps w so the returned *StatusRecorder captures the
// response status, while the returned ResponseWriter still advertises
// http.Flusher and io.ReaderFrom exactly when w does. Handlers that
// stream (flushing between chunks) or sendfile through the wrapper keep
// working; a wrapper that blindly embedded w would hide those optional
// interfaces and silently break flushing.
func WrapResponseWriter(w http.ResponseWriter) (http.ResponseWriter, *StatusRecorder) {
	rec := &StatusRecorder{ResponseWriter: w, Code: http.StatusOK}
	f, canFlush := w.(http.Flusher)
	rf, canReadFrom := w.(io.ReaderFrom)
	switch {
	case canFlush && canReadFrom:
		return struct {
			*StatusRecorder
			http.Flusher
			io.ReaderFrom
		}{rec, f, rf}, rec
	case canFlush:
		return struct {
			*StatusRecorder
			http.Flusher
		}{rec, f}, rec
	case canReadFrom:
		return struct {
			*StatusRecorder
			io.ReaderFrom
		}{rec, rf}, rec
	default:
		return rec, rec
	}
}

// statusClass maps a status code to its Prometheus-conventional class
// label ("2xx", "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}
