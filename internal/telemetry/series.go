package telemetry

import "sort"

// seriesRing is one series' bounded sample history: parallel timestamp
// and value rings, oldest at head. All access is serialized by the
// owning Monitor (or by Replay's single goroutine); the ring itself does
// no locking.
type seriesRing struct {
	key string
	t   []int64
	v   []float64
	// head indexes the oldest retained sample; n is the retained count.
	head, n int
}

func newSeriesRing(key string, capacity int) *seriesRing {
	return &seriesRing{key: key, t: make([]int64, capacity), v: make([]float64, capacity)}
}

// push appends one sample, evicting the oldest at capacity.
//
//cubefit:hotpath
func (r *seriesRing) push(tNs int64, v float64) {
	if r.n < len(r.t) {
		i := (r.head + r.n) % len(r.t)
		r.t[i] = tNs
		r.v[i] = v
		r.n++
		return
	}
	r.t[r.head] = tNs
	r.v[r.head] = v
	r.head = (r.head + 1) % len(r.t)
}

// latest returns the newest sample.
func (r *seriesRing) latest() (tNs int64, v float64, ok bool) {
	if r == nil || r.n == 0 {
		return 0, 0, false
	}
	i := (r.head + r.n - 1) % len(r.t)
	return r.t[i], r.v[i], true
}

// at returns the newest sample with timestamp ≤ tNs, falling back to the
// oldest retained sample when the whole ring is newer.
func (r *seriesRing) at(tNs int64) (int64, float64, bool) {
	if r == nil || r.n == 0 {
		return 0, 0, false
	}
	// Binary search over the logically ordered ring: timestamps are
	// strictly increasing by construction (the engine clamps each tick
	// past the previous one).
	lo := sort.Search(r.n, func(i int) bool {
		return r.t[(r.head+i)%len(r.t)] > tNs
	})
	if lo == 0 {
		j := r.head
		return r.t[j], r.v[j], true
	}
	j := (r.head + lo - 1) % len(r.t)
	return r.t[j], r.v[j], true
}

// delta returns latest − at(nowNs−windowNs) and the time span between
// those two samples. ok requires two distinct samples.
func (r *seriesRing) delta(nowNs, windowNs int64) (dv float64, spanNs int64, ok bool) {
	if r == nil || r.n < 2 {
		return 0, 0, false
	}
	tl, vl, _ := r.latest()
	t0, v0, _ := r.at(nowNs - windowNs)
	if tl <= t0 {
		return 0, 0, false
	}
	return vl - v0, tl - t0, true
}

// minSince returns the minimum value among samples with timestamp ≥ tNs.
func (r *seriesRing) minSince(tNs int64) (min float64, ok bool) {
	if r == nil {
		return 0, false
	}
	for i := 0; i < r.n; i++ {
		j := (r.head + i) % len(r.t)
		if r.t[j] < tNs {
			continue
		}
		if !ok || r.v[j] < min {
			min, ok = r.v[j], true
		}
	}
	return min, ok
}

// since returns the retained samples with timestamp ≥ tNs, oldest first.
func (r *seriesRing) since(tNs int64) []Point {
	if r == nil {
		return nil
	}
	var out []Point
	for i := 0; i < r.n; i++ {
		j := (r.head + i) % len(r.t)
		if r.t[j] >= tNs {
			out = append(out, Point{TNs: r.t[j], Value: r.v[j]})
		}
	}
	return out
}

// seriesStore holds every series ring, ordered by first appearance, with
// a name index for rule lookups.
type seriesStore struct {
	rings    []*seriesRing
	index    map[string]int
	capacity int
}

func newSeriesStore(capacity int) *seriesStore {
	return &seriesStore{index: make(map[string]int), capacity: capacity}
}

// ring returns the series' ring, creating it on first use.
func (s *seriesStore) ring(key string) *seriesRing {
	if i, ok := s.index[key]; ok {
		return s.rings[i]
	}
	r := newSeriesRing(key, s.capacity)
	s.index[key] = len(s.rings)
	s.rings = append(s.rings, r)
	return r
}

// lookup returns the series' ring or nil; rules treat an absent series
// as "nothing to say" rather than an error, so a controller without a
// WAL simply never trips the WAL rule.
func (s *seriesStore) lookup(key string) *seriesRing {
	if i, ok := s.index[key]; ok {
		return s.rings[i]
	}
	return nil
}

// keys returns every series key, sorted.
func (s *seriesStore) keys() []string {
	out := make([]string, len(s.rings))
	for i, r := range s.rings {
		out[i] = r.key
	}
	sort.Strings(out)
	return out
}
