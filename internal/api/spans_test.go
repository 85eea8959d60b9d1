package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cubefit/internal/clock"
	"cubefit/internal/metrics"
	"cubefit/internal/obs"
)

// captureSpans is a SpanRecorder retaining every completed span.
type captureSpans struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (c *captureSpans) RecordSpan(s obs.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *captureSpans) all() []obs.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Span(nil), c.spans...)
}

// telescopes asserts the acceptance identity: the five stage durations sum
// exactly to the end-to-end total.
func telescopes(t *testing.T, s obs.Span) {
	t.Helper()
	sum := s.QueueNs() + s.PlaceNs() + s.WalNs() + s.FsyncNs() + s.AckLatencyNs()
	if sum != s.TotalNs() {
		t.Fatalf("span stages sum %d != total %d: %+v", sum, s.TotalNs(), s)
	}
	if s.QueueNs() < 0 || s.PlaceNs() < 0 || s.WalNs() < 0 || s.FsyncNs() < 0 || s.AckLatencyNs() < 0 {
		t.Fatalf("negative stage duration: %+v", s)
	}
}

// TestSpanStageReconciliation drives singles, a batch, and failures
// through a WAL-backed pipeline and checks every completed span: stage
// telescoping, per-item status, batch marking, and group-commit
// attribution (every committed admission carries a commit id and the
// commit's group size).
func TestSpanStageReconciliation(t *testing.T) {
	sink := &captureSpans{}
	var wal bytes.Buffer
	srv, _, _ := newEngineServer(t, WithWAL(obs.NewWAL(&wal)), WithSpanSink(sink))

	for i := 0; i < 10; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 1 + i%15}, nil); code != 201 {
			t.Fatalf("place %d failed", i)
		}
	}
	// A duplicate: rejected by the placer (409) but still traced.
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 3, "load": 0.2}, nil); code != 409 {
		t.Fatal("duplicate not rejected")
	}
	// A batch with one pre-rejected item (400 rides the queue too).
	items := []map[string]any{{"id": 100, "load": 0.3}, {"id": 101, "load": -1.0}, {"id": 102, "load": 0.4}}
	var bresp batchResponse
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
		map[string]any{"tenants": items}, &bresp); code != 200 || bresp.Placed != 2 {
		t.Fatalf("batch: code %d placed %d", code, bresp.Placed)
	}

	spans := sink.all()
	if len(spans) != 14 {
		t.Fatalf("captured %d spans, want 14", len(spans))
	}
	byStatus := map[int]int{}
	for _, s := range spans {
		telescopes(t, s)
		byStatus[s.Status]++
		if s.Status == http.StatusCreated {
			if s.Commit == 0 || s.Group <= 0 {
				t.Fatalf("committed span without commit attribution: %+v", s)
			}
			if s.FsyncNs() <= 0 {
				t.Fatalf("committed span with no fsync time: %+v", s)
			}
		}
	}
	if byStatus[201] != 12 || byStatus[409] != 1 || byStatus[400] != 1 {
		t.Fatalf("status histogram %v", byStatus)
	}
	// Spans of one commit agree on its group size, and the batch items are
	// marked.
	groups := map[uint64]int{}
	batchSpans := 0
	for _, s := range spans {
		if s.Batch {
			batchSpans++
		}
		if s.Commit == 0 {
			continue
		}
		if g, seen := groups[s.Commit]; seen && g != s.Group {
			t.Fatalf("commit %d reported groups %d and %d", s.Commit, g, s.Group)
		}
		groups[s.Commit] = s.Group
	}
	if batchSpans != 3 {
		t.Fatalf("batch-marked spans %d, want 3", batchSpans)
	}
}

// pipelineGet fetches GET /debug/pipeline.
func pipelineGet(t *testing.T, base string) pipelineResponse {
	t.Helper()
	var resp pipelineResponse
	if err := json.Unmarshal(getBody(t, base+"/debug/pipeline"), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestDebugPipelineEndpoint(t *testing.T) {
	var wal bytes.Buffer
	srv, _, _ := newEngineServer(t, WithWAL(obs.NewWAL(&wal)))
	for i := 0; i < 25; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "load": 0.1}, nil); code != 201 {
			t.Fatalf("place %d failed", i)
		}
	}
	resp := pipelineGet(t, srv.URL)
	if !resp.Tracing {
		t.Fatal("tracing reported off")
	}
	if resp.Queue.Capacity != admitQueueDepth || resp.Queue.Depth != 0 {
		t.Fatalf("queue %+v", resp.Queue)
	}
	if resp.Queue.EnqueuedJobs != 25 || resp.Queue.DequeuedJobs != 25 {
		t.Fatalf("job counters %+v", resp.Queue)
	}
	if resp.Spans.Total != 25 || resp.Spans.Window != 25 {
		t.Fatalf("spans %+v", resp.Spans)
	}
	for _, stage := range []string{"queue", "place", "engine", "wal", "fsync", "ack", "commit", "total"} {
		if _, ok := resp.Spans.Stages[stage]; !ok {
			t.Fatalf("stage %q missing from %v", stage, resp.Spans.Stages)
		}
	}
	total := resp.Spans.Stages["total"]
	if total.P50Ns <= 0 || total.P99Ns < total.P50Ns || total.MaxNs < total.P99Ns {
		t.Fatalf("total summary not ordered: %+v", total)
	}
	if resp.Commits.Total == 0 || len(resp.Commits.Recent) == 0 {
		t.Fatalf("commits %+v", resp.Commits)
	}
	last := resp.Commits.Recent[len(resp.Commits.Recent)-1]
	if last.ID == 0 || last.Size <= 0 || last.FsyncNs <= 0 || last.Failed {
		t.Fatalf("commit record %+v", last)
	}
	// Bounded views.
	var small pipelineResponse
	if err := json.Unmarshal(getBody(t, srv.URL+"/debug/pipeline?spans=5&commits=1"), &small); err != nil {
		t.Fatal(err)
	}
	if small.Spans.Window != 5 || len(small.Commits.Recent) != 1 {
		t.Fatalf("bounded view: window %d commits %d", small.Spans.Window, len(small.Commits.Recent))
	}
}

func TestDebugPipelineDisabled(t *testing.T) {
	srv, _, _ := newEngineServer(t, WithoutSpanTracing())
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants", map[string]any{"id": 1, "load": 0.3}, nil); code != 201 {
		t.Fatal("untraced admission failed")
	}
	if code := doJSON(t, "GET", srv.URL+"/debug/pipeline", nil, nil); code != http.StatusNotFound {
		t.Fatalf("disabled tracing status %d, want 404", code)
	}
	// No pipeline series on /metrics either.
	if body := string(getBody(t, srv.URL+"/metrics")); strings.Contains(body, "cubefit_pipeline_") {
		t.Fatal("pipeline metrics registered with tracing disabled")
	}
}

// TestDebugQueryParamValidation pins the 400 contract for every debug
// endpoint's numeric query parameters: negative and non-numeric values are
// rejected, never silently coerced.
func TestDebugQueryParamValidation(t *testing.T) {
	srv, _, _ := newEngineServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/debug/events?n=-1", 400},
		{"/debug/events?n=abc", 400},
		{"/debug/events?n=1e3", 400},
		{"/debug/events?n=10", 200},
		{"/debug/events", 200},
		{"/debug/headroom?worst=-5", 400},
		{"/debug/headroom?worst=2.5", 400},
		{"/debug/headroom?worst=3", 200},
		{"/debug/pipeline?spans=-1", 400},
		{"/debug/pipeline?spans=x", 400},
		{"/debug/pipeline?commits=-2", 400},
		{"/debug/pipeline?spans=10&commits=0", 200},
	}
	for _, tc := range cases {
		var errResp errorResponse
		if code := doJSON(t, "GET", srv.URL+tc.path, nil, &errResp); code != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, code, tc.want)
		} else if tc.want == 400 && !strings.Contains(errResp.Error, "invalid") {
			t.Errorf("GET %s: error %q lacks parameter name", tc.path, errResp.Error)
		}
	}
}

// metricValue extracts one sample (by exact series name, labels included)
// from a Prometheus text exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// TestSpanJSONLMatchesMetrics is the round-trip acceptance test: spans
// exported through the JSONL sink must aggregate to the same per-stage
// totals the server's /metrics histograms report.
func TestSpanJSONLMatchesMetrics(t *testing.T) {
	var logbuf bytes.Buffer
	sink := obs.NewSpanJSONL(&logbuf)
	var wal bytes.Buffer
	srv, _, _ := newEngineServer(t, WithWAL(obs.NewWAL(&wal)), WithSpanSink(sink))

	for i := 0; i < 40; i++ {
		if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
			map[string]any{"id": i, "clients": 1 + i%15}, nil); code != 201 {
			t.Fatalf("place %d failed", i)
		}
	}
	items := make([]map[string]any, 30)
	for i := range items {
		items[i] = map[string]any{"id": 1000 + i, "load": 0.05}
	}
	if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch", map[string]any{"tenants": items}, nil); code != 200 {
		t.Fatal("batch failed")
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	spans, err := obs.ReadSpanJSONL(&logbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 70 {
		t.Fatalf("exported %d spans, want 70", len(spans))
	}
	stageSums := map[string]float64{}
	for _, s := range spans {
		telescopes(t, s)
		stageSums["queue"] += float64(s.QueueNs()) / 1e9
		stageSums["place"] += float64(s.PlaceNs()) / 1e9
		stageSums["wal"] += float64(s.WalNs()) / 1e9
		stageSums["fsync"] += float64(s.FsyncNs()) / 1e9
		stageSums["ack"] += float64(s.AckLatencyNs()) / 1e9
	}
	body := string(getBody(t, srv.URL+"/metrics"))
	for _, stage := range spanStageNames {
		count := metricValue(t, body,
			fmt.Sprintf(`cubefit_pipeline_stage_duration_seconds_count{stage=%q}`, stage))
		if count != float64(len(spans)) {
			t.Fatalf("stage %s count %v, want %d", stage, count, len(spans))
		}
		sum := metricValue(t, body,
			fmt.Sprintf(`cubefit_pipeline_stage_duration_seconds_sum{stage=%q}`, stage))
		want := stageSums[stage]
		if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("stage %s sum %v, spans aggregate %v", stage, sum, want)
		}
	}
	if n := metricValue(t, body, "cubefit_pipeline_commits_total"); n == 0 {
		t.Fatal("no commits recorded")
	}
}

// TestConcurrentBatchAdmissionsTraced hammers the traced pipeline from
// concurrent single and batch producers (raced in CI): every admission
// lands exactly once, every span completes and telescopes, and the
// commit attribution stays consistent under contention.
func TestConcurrentBatchAdmissionsTraced(t *testing.T) {
	sink := &captureSpans{}
	var wal bytes.Buffer
	srv, cf, _ := newEngineServer(t, WithWAL(obs.NewWAL(&wal)), WithSpanSink(sink))
	const workers, per = 6, 5
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				base := (g*per + i) * 10
				items := make([]map[string]any, 8)
				for j := range items {
					items[j] = map[string]any{"id": 100000 + base + j, "load": 0.05}
				}
				var bresp batchResponse
				if code := doJSON(t, "POST", srv.URL+"/v1/tenants:batch",
					map[string]any{"tenants": items}, &bresp); code != 200 || bresp.Failed != 0 {
					t.Errorf("batch %d: code %d failed %d", base, code, bresp.Failed)
					return
				}
				if code := doJSON(t, "POST", srv.URL+"/v1/tenants",
					map[string]any{"id": base + 9, "load": 0.1}, nil); code != 201 {
					t.Errorf("single %d failed", base+9)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	wantTenants := workers * per * 9
	if n := cf.Placement().NumTenants(); n != wantTenants {
		t.Fatalf("tenants = %d, want %d", n, wantTenants)
	}
	spans := sink.all()
	if len(spans) != wantTenants {
		t.Fatalf("spans = %d, want %d", len(spans), wantTenants)
	}
	groups := map[uint64]int{}
	for _, s := range spans {
		telescopes(t, s)
		if s.Status != http.StatusCreated || s.Commit == 0 {
			t.Fatalf("span not committed: %+v", s)
		}
		if g, seen := groups[s.Commit]; seen && g != s.Group {
			t.Fatalf("commit %d group mismatch: %d vs %d", s.Commit, g, s.Group)
		}
		groups[s.Commit] = s.Group
	}
	// Group sizes account for every admission exactly once.
	covered := 0
	for _, g := range groups {
		covered += g
	}
	if covered != wantTenants {
		t.Fatalf("commit groups cover %d admissions, want %d", covered, wantTenants)
	}
	resp := pipelineGet(t, srv.URL)
	if resp.Commits.Total != uint64(len(groups)) {
		t.Fatalf("commit total %d, want %d", resp.Commits.Total, len(groups))
	}
}

// newBenchTracer builds a tracer on a throwaway registry with the pool,
// ring, and waiter FIFO warmed.
func newBenchTracer() *pipelineTracer {
	tr := newPipelineTracer(metrics.NewRegistry(), clock.Real(), nil)
	for i := 0; i < 64; i++ {
		sp := obs.AcquireSpan()
		job := &admitJob{items: []admitItem{{span: sp}}}
		jobs := []*admitJob{job}
		tr.enqueued(job, 0)
		tr.dequeued(jobs, 0)
		tr.finish(sp)
	}
	return tr
}

// spanPipelineCycle is one admission's full tracer interaction: acquire,
// stamp every boundary, fold into histograms/ring, release.
func spanPipelineCycle(tr *pipelineTracer, job *admitJob, jobs []*admitJob) {
	sp := obs.AcquireSpan()
	job.items[0].span = sp
	tr.enqueued(job, 0)
	tr.dequeued(jobs, 0)
	sp.PlaceStartNs = tr.now()
	sp.PlaceEndNs = tr.now()
	stampCommit(jobs, tr.now(), tr.now(), 1, 1)
	sp.Status = http.StatusCreated
	tr.finish(sp)
}

// TestSpanOverheadZeroAlloc pins the hotpath discipline at the tracer
// level: a full traced admission cycle allocates nothing once warm.
func TestSpanOverheadZeroAlloc(t *testing.T) {
	tr := newBenchTracer()
	job := &admitJob{items: make([]admitItem, 1)}
	jobs := []*admitJob{job}
	if allocs := testing.AllocsPerRun(1000, func() {
		spanPipelineCycle(tr, job, jobs)
	}); allocs != 0 {
		t.Fatalf("traced admission cycle allocates %v per op, want 0", allocs)
	}
}

// BenchmarkSpanOverhead measures the tracer's per-admission cost (stamps,
// histogram folds, ring write); allocs/op must report 0.
func BenchmarkSpanOverhead(b *testing.B) {
	tr := newBenchTracer()
	job := &admitJob{items: make([]admitItem, 1)}
	jobs := []*admitJob{job}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanPipelineCycle(tr, job, jobs)
	}
}
