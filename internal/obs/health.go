package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Health log records: the offline twin of the telemetry subsystem. The
// sampler writes one "config" record up front (the rule-engine
// configuration, verbatim), one "sample" record per tick (every scraped
// series value), and one "transition" record per health-state change.
// Because the rule engine consumes nothing but the sample stream, a
// recorded log replays into the exact verdict timeline the live run
// produced (`cubefit-inspect health`).

// Health record kinds.
const (
	HealthKindConfig     = "config"
	HealthKindSample     = "sample"
	HealthKindTransition = "transition"
)

// HealthRecord is one line of the health JSONL log.
type HealthRecord struct {
	Kind string `json:"kind"`
	// TNs is the record's timestamp on the sampler's monotonic nanosecond
	// scale (0 for the config record).
	TNs int64 `json:"tNs"`
	// Values holds the tick's scraped series (sample records): series key
	// → value, keys per metrics.SeriesKey plus the sampler's derived
	// `:count`/`:p50`/`:p99`/`:good` histogram series.
	Values map[string]float64 `json:"values,omitempty"`
	// From/To/Rules/Evidence describe a state change (transition records):
	// the previous and new health state, the rules firing at the worst
	// severity, and one human-readable evidence line per firing rule.
	From     string   `json:"from,omitempty"`
	To       string   `json:"to,omitempty"`
	Rules    []string `json:"rules,omitempty"`
	Evidence []string `json:"evidence,omitempty"`
	// Config is the telemetry configuration (config records), kept
	// verbatim so replay rebuilds an identical rule engine.
	Config json.RawMessage `json:"config,omitempty"`
}

// HealthRecorder receives health log records.
type HealthRecorder interface {
	RecordHealth(HealthRecord)
}

// HealthJSONL is a HealthRecorder writing one JSON object per record
// (JSON Lines). Like the span sink, the first write error is
// sticky: subsequent records are dropped and the error is reported by
// Err, so a full disk never corrupts the log mid-line.
type HealthJSONL struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	enc *json.Encoder
	//cubefit:guarded-by mu
	n uint64
	//cubefit:guarded-by mu
	err error
}

// NewHealthJSONL returns a sink encoding health records onto w.
func NewHealthJSONL(w io.Writer) *HealthJSONL {
	return &HealthJSONL{enc: json.NewEncoder(w)}
}

// RecordHealth implements HealthRecorder.
func (s *HealthJSONL) RecordHealth(rec HealthRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(rec); err != nil {
		s.err = fmt.Errorf("obs: health jsonl write: %w", err)
		return
	}
	s.n++
}

// Count returns the number of records successfully written.
func (s *HealthJSONL) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *HealthJSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadHealthJSONL decodes a health log back into records.
func ReadHealthJSONL(r io.Reader) ([]HealthRecord, error) {
	dec := json.NewDecoder(r)
	var recs []HealthRecord
	for {
		var rec HealthRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return recs, nil
			}
			return nil, fmt.Errorf("obs: health jsonl read (record %d): %w", len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
}
