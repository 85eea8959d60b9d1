package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SpanJSONL is a SpanRecorder writing one JSON object per completed span
// (JSON Lines): capture it during a load run and feed it to
// `cubefit-inspect latency` to decompose end-to-end admission latency
// into pipeline stages. The first write error is sticky: subsequent
// spans are dropped and the error is reported by Err, so a full disk
// never corrupts the log mid-line.
type SpanJSONL struct {
	mu sync.Mutex
	//cubefit:guarded-by mu
	enc *json.Encoder
	//cubefit:guarded-by mu
	n uint64
	//cubefit:guarded-by mu
	err error
}

// NewSpanJSONL returns a sink encoding spans onto w, one per line.
func NewSpanJSONL(w io.Writer) *SpanJSONL {
	return &SpanJSONL{enc: json.NewEncoder(w)}
}

// RecordSpan implements SpanRecorder.
func (s *SpanJSONL) RecordSpan(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.enc.Encode(sp); err != nil {
		s.err = fmt.Errorf("obs: span jsonl write: %w", err)
		return
	}
	s.n++
}

// Count returns the number of spans successfully written.
func (s *SpanJSONL) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *SpanJSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadSpanJSONL decodes a span log back into spans. Every span is
// normalized on the way in, so stage durations are well-defined for
// consumers regardless of which pipeline boundaries the writer stamped.
func ReadSpanJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	for {
		var s Span
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return spans, nil
			}
			return nil, fmt.Errorf("obs: span jsonl read (span %d): %w", len(spans)+1, err)
		}
		s.Normalize()
		spans = append(spans, s)
	}
}
