package api

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"cubefit/internal/headroom"
	"cubefit/internal/metrics"
)

// headroomMetrics bundles the robustness headroom gauges. They are
// computed when read — by the telemetry sampler's tick and by GET
// /metrics (see refreshGauges) — never on the admission path, which only
// re-audits the servers it touched (mutatedLocked). A read is the
// auditor's LastSummary: an O(servers) allocation-free median selection
// over the audited entries that takes no controller lock.
type headroomMetrics struct {
	// mu serializes refreshes, so concurrent readers export one summary
	// at a time and advance lastOverload once per new event.
	mu       sync.Mutex
	minSlack *metrics.FGauge
	p50Slack *metrics.FGauge
	redline  *metrics.FGauge
	below    *metrics.Gauge
	overload *metrics.Gauge
	// overloadTotal mirrors the auditor's monotone overload-on-failure
	// event counter; lastOverload tracks the last value already exported.
	overloadTotal *metrics.Counter
	//cubefit:guarded-by mu
	lastOverload uint64
}

func newHeadroomMetrics(r *metrics.Registry) *headroomMetrics {
	return &headroomMetrics{
		minSlack: r.NewFGauge("cubefit_headroom_min_slack",
			"Least worst-case failover slack across open servers (1 when none open)."),
		p50Slack: r.NewFGauge("cubefit_headroom_p50_slack",
			"Median worst-case failover slack across open servers."),
		redline: r.NewFGauge("cubefit_headroom_redline",
			"Configured red-line slack threshold."),
		below: r.NewGauge("cubefit_headroom_below_redline",
			"Servers whose worst-case failover slack is below the red line."),
		overload: r.NewGauge("cubefit_headroom_overloaded_servers",
			"Servers that would overload under their worst failure set."),
		overloadTotal: r.NewCounter("cubefit_headroom_overload_on_failure_total",
			"Transitions of a server into the overload-on-failure state."),
	}
}

// refreshHeadroom recomputes the headroom gauges from the audit as of the
// last mutation. It takes no controller lock: the audit is current
// whenever no mutation is in flight, and the health tick must keep
// running while a writer holding c.mu waits on a hung fsync.
func (c *Controller) refreshHeadroom() {
	m := c.headroomM
	m.mu.Lock()
	defer m.mu.Unlock()
	s := c.auditor.LastSummary()
	m.minSlack.Set(s.MinSlack)
	m.p50Slack.Set(s.P50Slack)
	m.redline.Set(s.RedLine)
	m.below.Set(int64(s.BelowRedLine))
	m.overload.Set(int64(s.Overloaded))
	if s.OverloadEvents > m.lastOverload {
		m.overloadTotal.Add(s.OverloadEvents - m.lastOverload)
		m.lastOverload = s.OverloadEvents
	}
}

// SetHeadroomRedLine reconfigures the red-line slack threshold (<= 0
// selects headroom.DefaultRedLine).
func (c *Controller) SetHeadroomRedLine(redline float64) {
	// The recount drains the auditor, which reads the placement.
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.auditor.SetRedLine(redline)
}

// headroomResponse is GET /debug/headroom: the full audit plus the
// monotone overload-on-failure event total.
type headroomResponse struct {
	headroom.Report
	OverloadEventsTotal uint64 `json:"overloadEventsTotal"`
}

func (c *Controller) handleHeadroom(w http.ResponseWriter, r *http.Request) {
	worst := 0
	if raw := r.URL.Query().Get("worst"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid worst " + raw})
			return
		}
		worst = v
	}
	c.mu.RLock()
	rep := c.auditor.Report()
	_, _, _, events := c.auditor.Aggregates()
	if worst > 0 {
		rep.Servers = c.auditor.Worst(worst)
	}
	c.mu.RUnlock()
	writeJSON(w, http.StatusOK, headroomResponse{Report: rep, OverloadEventsTotal: events})
}

// headroomServerResponse is GET /debug/headroom/servers/{id}: one server's
// audit entry with its worst failure set attributed to the co-located
// tenants that would redirect load onto it.
type headroomServerResponse struct {
	headroom.Entry
	RedLine      bool                    `json:"belowRedLine"`
	Contributors []headroom.Contribution `json:"contributors"`
}

func (c *Controller) handleHeadroomServer(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid server id " + raw})
		return
	}
	c.mu.RLock()
	entry, ok := c.auditor.Entry(id)
	var contribs []headroom.Contribution
	if ok {
		contribs, err = headroom.Contributors(c.alg.Placement(), id, entry.WorstSet)
	}
	redline := c.auditor.RedLine()
	c.mu.RUnlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("server %d not found", id)})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if contribs == nil {
		contribs = []headroom.Contribution{}
	}
	writeJSON(w, http.StatusOK, headroomServerResponse{
		Entry:        entry,
		RedLine:      entry.Slack < redline,
		Contributors: contribs,
	})
}
