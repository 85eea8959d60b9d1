package telemetry

import (
	"encoding/json"
	"fmt"

	"cubefit/internal/obs"
)

// ReplayResult is the verdict timeline reconstructed from a health log.
type ReplayResult struct {
	// Config is the effective configuration from the log's config record.
	Config Config `json:"config"`
	// Ticks is the number of sample records replayed.
	Ticks int `json:"ticks"`
	// Final is the state after the last sample.
	Final State `json:"final"`
	// Transitions is the full reconstructed transition sequence.
	Transitions []Transition `json:"transitions"`
	// Recorded is the transition sequence the live run wrote into the
	// log, for parity comparison against Transitions.
	Recorded []Transition `json:"recorded"`
}

// ParityOK reports whether the reconstructed transitions exactly match
// the recorded ones (timestamps, states, and firing rules).
func (r ReplayResult) ParityOK() bool {
	if len(r.Transitions) != len(r.Recorded) {
		return false
	}
	for i, tr := range r.Transitions {
		rec := r.Recorded[i]
		if tr.TNs != rec.TNs || tr.From != rec.From || tr.To != rec.To {
			return false
		}
		if len(tr.Rules) != len(rec.Rules) {
			return false
		}
		for j := range tr.Rules {
			if tr.Rules[j] != rec.Rules[j] {
				return false
			}
		}
	}
	return true
}

// Replay feeds a recorded health log through a fresh rule engine and
// returns the reconstructed verdict timeline. Because the live engine
// consumes nothing but the sample stream and the configuration embedded
// in the log, the reconstruction is exact: same transitions at the same
// tick timestamps with the same firing rules. The engine's series rings
// hold at most as many samples as the log has sample records: a replay
// never holds more, so no verdict changes, and a config record cannot
// make it allocate more than the log's size warrants.
func Replay(recs []obs.HealthRecord) (ReplayResult, error) {
	var (
		res     ReplayResult
		eng     *engine
		samples int
	)
	for _, rec := range recs {
		if rec.Kind == obs.HealthKindSample {
			samples++
		}
	}
	for i, rec := range recs {
		switch rec.Kind {
		case obs.HealthKindConfig:
			var cfg Config
			if err := json.Unmarshal(rec.Config, &cfg); err != nil {
				return res, fmt.Errorf("telemetry: replay config record %d: %w", i+1, err)
			}
			eng = newEngine(cfg)
			res.Config = eng.cfg
			eng.store.capacity = min(eng.store.capacity, max(samples, 1))
		case obs.HealthKindSample:
			if eng == nil {
				return res, fmt.Errorf("telemetry: replay record %d: sample before config record", i+1)
			}
			_, tr := eng.ingest(rec.TNs, rec.Values)
			res.Ticks++
			if tr != nil {
				res.Transitions = append(res.Transitions, *tr)
			}
		case obs.HealthKindTransition:
			tr := Transition{TNs: rec.TNs, Rules: rec.Rules, Evidence: rec.Evidence}
			if err := parseState(rec.From, &tr.From); err != nil {
				return res, fmt.Errorf("telemetry: replay record %d: %w", i+1, err)
			}
			if err := parseState(rec.To, &tr.To); err != nil {
				return res, fmt.Errorf("telemetry: replay record %d: %w", i+1, err)
			}
			res.Recorded = append(res.Recorded, tr)
		default:
			return res, fmt.Errorf("telemetry: replay record %d: unknown kind %q", i+1, rec.Kind)
		}
	}
	if eng == nil {
		return res, fmt.Errorf("telemetry: health log holds no config record")
	}
	res.Final = eng.state
	return res, nil
}

func parseState(name string, out *State) error {
	for i, n := range stateNames {
		if name == n {
			*out = State(i)
			return nil
		}
	}
	return fmt.Errorf("unknown state %q", name)
}
