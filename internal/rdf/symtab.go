package rdf

import "repro/internal/text"

// symtab is Store's node/predicate interning layer: labels, kinds,
// predicate names and the label gazetteer, kept apart from the triple
// indexes.
type symtab struct {
	labels []string // node ID -> surface label
	kinds  []Kind   // node ID -> kind

	predNames []string       // PID -> name
	predIDs   map[string]PID // name -> PID

	// byLabel maps a normalized label to all nodes carrying it. Entity
	// names are deliberately allowed to be ambiguous (several nodes, one
	// label) — entity linking uncertainty is a core motivation for the
	// paper's probabilistic model.
	byLabel map[string][]ID

	litIDs map[string]ID // interned literals: normalized label -> node
}

func newSymtab() symtab {
	return symtab{
		predIDs: make(map[string]PID),
		byLabel: make(map[string][]ID),
		litIDs:  make(map[string]ID),
	}
}

func (s *symtab) newNode(label string, kind Kind) ID {
	id := ID(len(s.labels))
	s.labels = append(s.labels, label)
	s.kinds = append(s.kinds, kind)
	key := text.Normalize(label)
	if key != "" {
		s.byLabel[key] = append(s.byLabel[key], id)
	}
	return id
}

// Entity returns the node for the named entity, creating it on first use.
// Repeated calls with the same (normalized) label return the same node.
func (s *symtab) Entity(label string) ID {
	key := text.Normalize(label)
	for _, id := range s.byLabel[key] {
		if s.kinds[id] == KindEntity {
			return id
		}
	}
	return s.newNode(label, KindEntity)
}

// NewAmbiguousEntity always creates a fresh entity node with the given
// label, even when other entities already carry it. This is how the
// synthetic KB reproduces surface-form ambiguity (two "Springfield"s).
func (s *symtab) NewAmbiguousEntity(label string) ID {
	return s.newNode(label, KindEntity)
}

// Mediator creates a fresh anonymous structure node. The label is only used
// for debugging output.
func (s *symtab) Mediator(label string) ID {
	return s.newNode(label, KindMediator)
}

// Literal returns the interned node for a literal value.
func (s *symtab) Literal(label string) ID {
	key := text.Normalize(label)
	if id, ok := s.litIDs[key]; ok {
		return id
	}
	id := s.newNode(label, KindLiteral)
	s.litIDs[key] = id
	return id
}

// Pred interns a predicate name and returns its PID.
func (s *symtab) Pred(name string) PID {
	if id, ok := s.predIDs[name]; ok {
		return id
	}
	id := PID(len(s.predNames))
	s.predNames = append(s.predNames, name)
	s.predIDs[name] = id
	return id
}

// PredID looks up an existing predicate by name.
func (s *symtab) PredID(name string) (PID, bool) {
	id, ok := s.predIDs[name]
	return id, ok
}

// PredName returns the name of p. It panics on an unknown PID: predicate IDs
// only ever come from this store, so an unknown one is a bug.
func (s *symtab) PredName(p PID) string {
	return s.predNames[p]
}

// Label returns the surface label of a node.
func (s *symtab) Label(id ID) string { return s.labels[id] }

// KindOf returns the node kind.
func (s *symtab) KindOf(id ID) Kind { return s.kinds[id] }

// NodesByLabel returns all nodes whose normalized label equals the
// normalized form of label.
func (s *symtab) NodesByLabel(label string) []ID {
	return s.byLabel[text.Normalize(label)]
}

// NodesByKey returns all nodes whose normalized label is key, a label
// already normalized: joined tokens of text.Tokenize are.
func (s *symtab) NodesByKey(key []byte) []ID { return s.byLabel[string(key)] }

// EntitiesByLabel returns only the entity nodes carrying the label.
func (s *symtab) EntitiesByLabel(label string) []ID {
	var out []ID
	for _, id := range s.byLabel[text.Normalize(label)] {
		if s.kinds[id] == KindEntity {
			out = append(out, id)
		}
	}
	return out
}

// NumNodes returns the number of nodes in the store.
func (s *symtab) NumNodes() int { return len(s.labels) }

// NumPredicates returns the number of distinct predicate names.
func (s *symtab) NumPredicates() int { return len(s.predNames) }

// Predicates returns all predicate IDs in ascending order.
func (s *symtab) Predicates() []PID {
	out := make([]PID, len(s.predNames))
	for i := range out {
		out[i] = PID(i)
	}
	return out
}

// Entities returns every entity node, in ID order.
func (s *symtab) Entities() []ID {
	var out []ID
	for id, k := range s.kinds {
		if k == KindEntity {
			out = append(out, ID(id))
		}
	}
	return out
}
