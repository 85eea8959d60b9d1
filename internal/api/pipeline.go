package api

import (
	"encoding/json"
	"fmt"
	"net/http"

	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// Admission pipeline: every mutation — single admissions, batches and
// departures alike — is enqueued as a job on a bounded queue and resolved
// by one placer goroutine, the only code that mutates the engine or syncs
// the write-ahead log. The placer coalesces whatever jobs are waiting and
// resolves them in groups under the write lock: admissions in arrival
// order (the exact serial semantics of the engine), then the departures
// that follow them. It invalidates the placement snapshot and delivers
// the decision events once per group, performs one group commit before
// any item of the group is acked, and applies the group's departures only
// after it. Handlers block on their job's future; arrival order is the
// queue order, so coalesced jobs are indistinguishable from back-to-back
// single requests.

const (
	// admitQueueDepth bounds the number of queued jobs; producers block
	// (backpressure) when the pipeline falls behind.
	admitQueueDepth = 1024
	// maxCoalescedItems caps how many items the placer takes off the
	// queue at once, bounding ack latency for the first request of a busy
	// burst.
	maxCoalescedItems = 4096
	// maxBatchTenants caps the size of one POST /v1/tenants:batch request.
	maxBatchTenants = 4096
)

// admitItem is one tenant travelling through the pipeline, carrying its
// outcome back to the waiting handler.
type admitItem struct {
	tenant packing.Tenant
	// depart marks a departure of tenant.ID, the one item of its job.
	depart bool
	// status is an HTTP status code: 0 until decided, 201 or 204 on
	// success. Items pre-rejected by request validation enter the queue
	// with their status already set and are skipped by the placer.
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
// already-queued mutations complete; subsequent ones are refused with
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
// mutations reach the engine, and so the order in which they reach the
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

// admitItemsLocked admits every undecided admission of the group, in
// arrival order, and runs mutatedLocked when the engine changed; while the
// log is down it answers every item 503. It returns the number of
// successful engine admissions (the commit's group size) and whether
// anything mutated. The caller holds the write lock.
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
				it.err = "write-ahead log unavailable; mutations disabled"
				continue
			}
			if it.depart {
				continue // stageDeparturesLocked
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

// stageDeparturesLocked hands the log every undecided departure of the
// group, after its admissions, and marks it 204; one of a tenant the engine
// does not hold, or that departs earlier in the group, answers 404. It
// reports whether any departure was staged. The caller holds the lock.
func (c *Controller) stageDeparturesLocked(jobs []*admitJob) bool {
	departing := map[packing.TenantID]bool{}
	for _, job := range jobs {
		it := &job.items[0]
		if !it.depart || it.status != 0 {
			continue
		}
		if _, ok := c.alg.Placement().Tenant(it.tenant.ID); !ok || departing[it.tenant.ID] {
			it.status, it.err = http.StatusNotFound, fmt.Sprintf("%v: %d", packing.ErrUnknownTenant, it.tenant.ID)
			continue
		}
		if c.wal != nil {
			e := obs.NewEvent(obs.KindDepart)
			e.Tenant = int(it.tenant.ID)
			c.wal.Record(e)
		}
		departing[it.tenant.ID] = true
		it.status = http.StatusNoContent
	}
	return len(departing) > 0
}

// removeItemsLocked removes the tenant of every item that answers status,
// a committed departure (204) or an admission after a failed commit (201),
// and delivers the removals' events. Either implies Remove, and the placer
// saw the tenant placed, so Remove cannot fail. The caller holds the lock.
func (c *Controller) removeItemsLocked(jobs []*admitJob, status int) {
	rem := c.alg.(Remover)
	for _, job := range jobs {
		for i := range job.items {
			if it := &job.items[i]; it.status == status {
				// The depart event is delivered after Remove, when the
				// placement no longer holds the tenant's hosts.
				c.auditor.MarkTenant(it.tenant.ID)
				_ = rem.Remove(it.tenant.ID)
			}
		}
	}
	c.mutatedLocked()
}

// rollbackBatch answers 503 to every admission and departure of a group
// whose commit failed and removes its admitted tenants again; its
// departures never reached the engine. (If the flush landed but the fsync
// failed, recovery may still replay them — durability errs toward the
// log, never the ack.)
func (c *Controller) rollbackBatch(jobs []*admitJob, msg string) {
	c.mu.Lock()
	c.removeItemsLocked(jobs, http.StatusCreated)
	c.mu.Unlock()
	for _, job := range jobs {
		for i := range job.items {
			if it := &job.items[i]; it.status == http.StatusCreated || it.status == http.StatusNoContent {
				it.status, it.err, it.servers = http.StatusServiceUnavailable, msg, nil
			}
		}
	}
}

// placeJobs resolves the coalesced jobs group by group: a run of
// admissions and the departures that follow them. An admission after a
// departure starts the next group, because it must see that departure
// applied, so the jobs resolve as they would one at a time. A group that
// logged anything is committed before its departures are applied; a
// failed commit acks none of it, and the log's error is sticky, so all
// later mutations fail closed until the operator intervenes.
func (c *Controller) placeJobs(jobs []*admitJob) {
	for len(jobs) > 0 {
		n := 1
		for n < len(jobs) && (!jobs[n-1].items[0].depart || jobs[n].items[0].depart) {
			n++
		}
		group := jobs[:n]
		jobs = jobs[n:]
		c.mu.Lock()
		admitted, mutated := c.admitItemsLocked(group)
		departs := c.stageDeparturesLocked(group)
		c.mu.Unlock()
		if c.wal != nil && (mutated || departs) {
			tr, start := c.tracer, int64(0)
			if tr != nil {
				start = tr.now()
			}
			err := c.wal.Sync()
			if tr != nil {
				id, end := tr.nextCommit(), tr.now()
				stampCommit(group, start, end, id, admitted)
				tr.commitDone(id, admitted, end-start, end, err != nil)
			}
			if err != nil {
				c.rollbackBatch(group, "write-ahead log sync failed: "+err.Error())
				continue
			}
		}
		if departs {
			c.mu.Lock()
			c.removeItemsLocked(group, http.StatusNoContent)
			c.mu.Unlock()
		}
	}
}

// stampCommit marks a group commit's start, end, sequence number and
// group size (admitted) on every traced span of the group, rejected items
// included: they waited for the same fsync, whose cost is so attributable
// across the admissions it covered.
func stampCommit(group []*admitJob, start, end int64, id uint64, admitted int) {
	for _, job := range group {
		for i := range job.items {
			if sp := job.items[i].span; sp != nil {
				sp.CommitStartNs, sp.CommitEndNs = start, end
				sp.Commit, sp.Group = id, admitted
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
