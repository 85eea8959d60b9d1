package packing

// Algorithm is an online server-consolidation algorithm: it receives
// tenants one at a time and must place each tenant's γ replicas on γ
// distinct servers of the placement it manages, without knowledge of
// forthcoming tenants.
type Algorithm interface {
	// Name identifies the algorithm in reports (e.g. "cubefit(k=10,γ=2)").
	Name() string
	// Place admits one tenant, placing all of its replicas.
	Place(t Tenant) error
	// Placement exposes the placement built so far. Callers must treat it
	// as read-only.
	Placement() *Placement
}

// PlaceAll feeds every tenant of the sequence to the algorithm, stopping at
// the first error.
func PlaceAll(a Algorithm, tenants []Tenant) error {
	for _, t := range tenants {
		if err := a.Place(t); err != nil {
			return err
		}
	}
	return nil
}

// EachShared calls fn for every server j with |Si ∩ Sj| > 0 for this
// server Si. Iteration order is unspecified. fn must not mutate the
// placement.
//
//cubefit:hotpath
func (s *Server) EachShared(fn func(j int, load float64)) {
	for _, e := range s.shared {
		fn(e.peer, e.load)
	}
}

// NumShared returns the number of servers this server shares tenants with.
func (s *Server) NumShared() int { return len(s.shared) }
