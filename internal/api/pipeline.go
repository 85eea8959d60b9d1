package api

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// Admission pipeline: every admission — single requests and batches alike
// — is enqueued as a job on a bounded queue and resolved by one placer
// goroutine. The placer coalesces whatever jobs are waiting into a single
// write-lock acquisition, places the tenants in arrival order (the exact
// serial semantics of the engine), invalidates the placement snapshot once
// per batch, re-audits the servers the batch touched for the headroom
// gauges, and then performs one write-ahead-log group commit before any of
// the batched admissions are acked. The gauges themselves are computed
// when read (refreshGauges). Handlers block on their job's future; arrival
// order is the queue order, so a batch of N is indistinguishable from N
// back-to-back single requests.

const (
	// admitQueueDepth bounds the number of queued jobs; producers block
	// (backpressure) when the pipeline falls behind.
	admitQueueDepth = 1024
	// maxCoalescedItems caps how many admissions the placer folds into
	// one lock acquisition and group commit, bounding ack latency for the
	// first request of a busy burst.
	maxCoalescedItems = 4096
	// maxBatchTenants caps the size of one POST /v1/tenants:batch request.
	maxBatchTenants = 4096
)

// admitItem is one tenant travelling through the pipeline, carrying its
// outcome back to the waiting handler.
type admitItem struct {
	tenant packing.Tenant
	// status is an HTTP status code: 0 until decided, http.StatusCreated
	// on success. Items pre-rejected by request validation enter the
	// queue with their status already set and are skipped by the placer.
	status  int
	err     string
	servers []int
	// span carries the item's pipeline trace (nil when tracing is
	// disabled). The pipeline stamps it in place; the handler that owns
	// the job completes and releases it after done closes.
	span *obs.Span
}

// admitJob is the unit handed to the placer: the items of one request,
// resolved together. done is closed once every item has an outcome.
type admitJob struct {
	items []admitItem
	done  chan struct{}
}

// enqueue submits a job to the placer, blocking while the queue is full.
// It returns false when the controller is closed.
func (c *Controller) enqueue(job *admitJob) bool {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.closed {
		return false
	}
	if c.tracer != nil {
		// Stamped before the send so the queue stage includes backpressure
		// blocking on a full channel.
		c.tracer.enqueued(job, len(c.queue))
	}
	c.queue <- job
	return true
}

// Close drains the admission pipeline and, when a write-ahead log is
// attached, performs its final group commit and closes it. In-flight and
// already-queued admissions complete; subsequent ones are refused with
// 503. Close is idempotent and safe for concurrent use.
func (c *Controller) Close() error {
	c.sendMu.Lock()
	already := c.closed
	c.closed = true
	c.sendMu.Unlock()
	if c.monitor != nil {
		c.monitor.Stop()
	}
	if !already {
		close(c.queue)
	}
	<-c.placerDone
	if !already && c.wal != nil {
		return c.wal.Close()
	}
	return nil
}

// runPlacer is the pipeline's single consumer: it owns the order in which
// admissions reach the engine, and so the order in which they reach the
// write-ahead log.
func (c *Controller) runPlacer() {
	defer close(c.placerDone)
	jobs := make([]*admitJob, 0, 64)
	for job := range c.queue {
		jobs = append(jobs[:0], job)
		items := len(job.items)
	coalesce:
		for items < maxCoalescedItems {
			select {
			case next, ok := <-c.queue:
				if !ok {
					break coalesce
				}
				jobs = append(jobs, next)
				items += len(next.items)
			default:
				break coalesce
			}
		}
		if c.tracer != nil {
			c.tracer.dequeued(jobs, len(c.queue))
		}
		c.placeJobs(jobs)
		for _, j := range jobs {
			close(j.done)
		}
	}
}

// admitItemsLocked admits every undecided item of the coalesced jobs, in
// arrival order, and runs mutatedLocked when the engine changed. It
// returns the number of successful engine admissions (the commit's group
// size) and whether anything mutated. The caller holds the write lock.
func (c *Controller) admitItemsLocked(jobs []*admitJob) (group int, mutated bool) {
	tr := c.tracer
	walDown := c.wal != nil && c.wal.Err() != nil
	p := c.alg.Placement()
	for _, job := range jobs {
		// hosts is the job's one slab of admitted items' servers, γ each.
		var hosts []int
		for i := range job.items {
			it := &job.items[i]
			if it.status != 0 {
				continue
			}
			if walDown {
				it.status = http.StatusServiceUnavailable
				it.err = "write-ahead log unavailable; admissions disabled"
				continue
			}
			if _, exists := p.Tenant(it.tenant.ID); exists {
				it.status = http.StatusConflict
				it.err = fmt.Sprintf("tenant %d already placed", it.tenant.ID)
				continue
			}
			mutated = true // even a failed admission may open servers
			if tr != nil && it.span != nil {
				it.span.PlaceStartNs = tr.now()
			}
			if err := c.alg.Place(it.tenant); err != nil {
				it.status = http.StatusUnprocessableEntity
				it.err = err.Error()
			} else {
				it.status = http.StatusCreated
				if hosts == nil {
					hosts = make([]int, 0, p.Gamma()*len(job.items))
				}
				// Fills the slab in place: it has room for γ per item.
				got := p.TenantHostsInto(it.tenant.ID, hosts[len(hosts):])
				it.servers = got[:len(got):len(got)]
				hosts = hosts[:len(hosts)+len(got)]
				group++
			}
			if tr != nil && it.span != nil {
				it.span.PlaceEndNs = tr.now()
			}
		}
	}
	if mutated {
		c.mutatedLocked()
	}
	return group, mutated
}

// rollbackBatch demotes every admitted item of the batch to 503 and
// removes its tenant from the engine, keeping the in-memory state aligned
// with what clients were told. (If the flush landed but the fsync failed,
// recovery may still resurrect these admissions from the log — durability
// errs toward the log, never the ack.)
func (c *Controller) rollbackBatch(jobs []*admitJob, msg string) {
	// NewController refuses WAL attachment on algorithms without Remove,
	// so the rollback is always available here.
	rem := c.alg.(Remover)
	c.mu.Lock()
	for _, job := range jobs {
		for i := range job.items {
			it := &job.items[i]
			if it.status == http.StatusCreated {
				it.status = http.StatusServiceUnavailable
				it.err = msg
				it.servers = nil
				_ = rem.Remove(it.tenant.ID)
			}
		}
	}
	c.mutatedLocked()
	c.mu.Unlock()
}

// placeJobs admits every undecided item of the coalesced jobs under one
// write-lock acquisition, then group-commits the write-ahead log before
// the callers are released. On a failed commit every admission of the
// batch is demoted to 503: its events may not have reached stable
// storage, so acking it would break the recovery contract. The WAL error
// is sticky, so all later admissions fail closed until the operator
// intervenes.
func (c *Controller) placeJobs(jobs []*admitJob) {
	tr := c.tracer
	c.mu.Lock()
	group, mutated := c.admitItemsLocked(jobs)
	c.mu.Unlock()
	if c.wal == nil || !mutated {
		return
	}
	// One group commit covers the whole coalesced batch: every span in it
	// (including rejected items, which wait for the same fsync before
	// their handler is released) carries the commit identity, so the
	// fsync's cost is attributable across the admissions it covered.
	var commitID uint64
	var commitStart int64
	if tr != nil {
		commitID = tr.nextCommit()
		commitStart = tr.now()
		stampCommitStart(jobs, commitStart)
	}
	syncErr := c.wal.Sync()
	if tr != nil {
		commitEnd := tr.now()
		stampCommitEnd(jobs, commitEnd, commitID, group)
		tr.commitDone(commitID, group, commitEnd-commitStart, commitEnd, syncErr != nil)
	}
	if err := syncErr; err != nil {
		// The batch's events may not have reached stable storage, so none
		// of its admissions can be acked.
		c.rollbackBatch(jobs, "write-ahead log sync failed: "+err.Error())
	}
}

// stampCommitStart marks the group commit beginning on every traced span
// of the batch.
func stampCommitStart(jobs []*admitJob, ns int64) {
	for _, job := range jobs {
		for i := range job.items {
			if sp := job.items[i].span; sp != nil {
				sp.CommitStartNs = ns
			}
		}
	}
}

// stampCommitEnd marks the group commit completion and identity (commit
// sequence number and group size) on every traced span of the batch.
func stampCommitEnd(jobs []*admitJob, ns int64, commitID uint64, group int) {
	for _, job := range jobs {
		for i := range job.items {
			if sp := job.items[i].span; sp != nil {
				sp.CommitEndNs = ns
				sp.Commit = commitID
				sp.Group = group
			}
		}
	}
}

// resolve translates a validated placeRequest into the tenant handed to
// the engine. A load derived from the client count is re-validated: the
// linear model is unclamped, so a large client count maps above 1 and
// must be refused (422) before it reaches placement state.
func (c *Controller) resolve(req placeRequest) (packing.Tenant, error) {
	t := packing.Tenant{ID: packing.TenantID(req.ID), Load: req.Load, Clients: req.Clients}
	if req.Load == 0 {
		t.Load = c.model.Load(req.Clients)
		if err := t.Validate(); err != nil {
			return t, fmt.Errorf("%d clients derive load %v outside (0,1]", req.Clients, t.Load)
		}
	}
	return t, nil
}

// batchRequest is POST /v1/tenants:batch.
type batchRequest struct {
	Tenants []placeRequest `json:"tenants"`
}

// batchResult is one per-tenant outcome of a batch admission. Status is
// the HTTP status the same request would have received on the single
// endpoint (201, 400, 409, 422, 503).
type batchResult struct {
	ID      int     `json:"id"`
	Status  int     `json:"status"`
	Load    float64 `json:"load,omitempty"`
	Clients int     `json:"clients,omitempty"`
	Servers []int   `json:"servers,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// batchResponse reports a batch admission. Placed and Failed partition
// the items; failures are partial — successful items stay admitted.
type batchResponse struct {
	Placed  int           `json:"placed"`
	Failed  int           `json:"failed"`
	Results []batchResult `json:"results"`
}

func (c *Controller) handlePlaceBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return
	}
	if len(req.Tenants) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "tenants must be non-empty"})
		return
	}
	if len(req.Tenants) > maxBatchTenants {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Tenants), maxBatchTenants)})
		return
	}
	job := &admitJob{items: make([]admitItem, len(req.Tenants)), done: make(chan struct{})}
	for i, pr := range req.Tenants {
		it := &job.items[i]
		if c.tracer != nil {
			sp := obs.AcquireSpan()
			sp.Tenant = pr.ID
			sp.Batch = true
			it.span = sp
		}
		if err := pr.validate(); err != nil {
			it.status = http.StatusBadRequest
			it.err = err.Error()
			continue
		}
		t, err := c.resolve(pr)
		it.tenant = t // ID is populated even when the derived load is refused
		if err != nil {
			it.status = http.StatusUnprocessableEntity
			it.err = err.Error()
			continue
		}
	}
	if !c.enqueue(job) {
		for i := range job.items {
			if sp := job.items[i].span; sp != nil {
				obs.ReleaseSpan(sp)
			}
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return
	}
	<-job.done
	resp := batchResponse{Results: make([]batchResult, len(job.items))}
	for i := range job.items {
		it := &job.items[i]
		if it.span != nil {
			it.span.Status = it.status
			c.tracer.finish(it.span)
			it.span = nil
		}
		res := batchResult{ID: int(it.tenant.ID), Status: it.status, Error: it.err}
		if it.status == http.StatusBadRequest {
			// The id may not have parsed meaningfully; echo the request's.
			res.ID = req.Tenants[i].ID
		}
		if it.status == http.StatusCreated {
			res.Load = it.tenant.Load
			res.Clients = it.tenant.Clients
			res.Servers = it.servers
			resp.Placed++
		} else {
			resp.Failed++
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, resp)
}
