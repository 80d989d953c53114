package lint

import "go/token"

// A Fact is one cross-package statement an analyzer exports about a package's
// declarations — "this string is a registered fault-point name", "this
// const is a catalogued metric name". Downstream packages import the facts of their dependencies through
// the shared FactStore, which is how a single-package analyzer enforces a
// module-wide invariant (DESIGN.md §8.5). Facts are deliberately flat: a
// (kind, value) pair plus provenance.
type Fact struct {
	// Pkg is the import path of the exporting package.
	Pkg string
	// Kind namespaces the fact, by convention "<analyzer>.<what>"
	// (e.g. "faultpoint.registered", "metricstable.name").
	Kind string
	// Value is the payload: the registered name, the catalogued metric.
	Value string
	// Pos is where the fact was exported from, for diagnostics that point
	// back at the declaration (orphan reports).
	Pos token.Position
}

// A FactStore accumulates facts across one analysis run. Packages must be
// analyzed in dependency order (see TopoSort) so a pass sees every fact its
// imports exported. The store is not safe for concurrent use; the suite runs
// packages sequentially by design.
type FactStore struct {
	facts  []Fact
	byKind map[string][]int
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{byKind: make(map[string][]int)}
}

// Add records one fact.
func (s *FactStore) Add(f Fact) {
	s.byKind[f.Kind] = append(s.byKind[f.Kind], len(s.facts))
	s.facts = append(s.facts, f)
}

// OfKind returns every fact of the given kind, in export order.
func (s *FactStore) OfKind(kind string) []Fact {
	idxs := s.byKind[kind]
	out := make([]Fact, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, s.facts[i])
	}
	return out
}

// Lookup returns the facts matching (kind, value), in export order.
func (s *FactStore) Lookup(kind, value string) []Fact {
	var out []Fact
	for _, i := range s.byKind[kind] {
		if s.facts[i].Value == value {
			out = append(out, s.facts[i])
		}
	}
	return out
}
