package rdf

import "slices"

// Store is the in-memory knowledge base: hash indexes over all three
// access paths, over interned node and predicate IDs. The online path
// makes point probes V(e, p+) per interpretation and the offline
// predicate expansion is a k-round full scan+join (Sec 6.2); one set of
// maps serves both.
//
// A Store is safe for concurrent readers once writes have finished;
// writes (Add) must not race with reads.
type Store struct {
	symtab

	spo map[ID]map[PID][]ID
	pos map[PID]map[ID][]ID
	so  map[ID]map[ID][]PID

	triples int
}

// NewStore returns an empty knowledge base.
func NewStore() *Store {
	return &Store{
		symtab: newSymtab(),
		spo:    make(map[ID]map[PID][]ID),
		pos:    make(map[PID]map[ID][]ID),
		so:     make(map[ID]map[ID][]PID),
	}
}

// Add records the triple (subj, pred, obj). Duplicate triples are ignored.
func (s *Store) Add(subj ID, pred PID, obj ID) {
	pm, ok := s.spo[subj]
	if !ok {
		pm = make(map[PID][]ID)
		s.spo[subj] = pm
	}
	if slices.Contains(pm[pred], obj) {
		return
	}
	pm[pred] = append(pm[pred], obj)

	om, ok := s.pos[pred]
	if !ok {
		om = make(map[ID][]ID)
		s.pos[pred] = om
	}
	om[obj] = append(om[obj], subj)

	sm, ok := s.so[subj]
	if !ok {
		sm = make(map[ID][]PID)
		s.so[subj] = sm
	}
	sm[obj] = append(sm[obj], pred)

	s.triples++
}

// Objects returns V(e,p): all objects o with (subj, pred, o) in K. The
// returned slice is owned by the store and must not be mutated.
func (s *Store) Objects(subj ID, pred PID) []ID {
	return s.spo[subj][pred]
}

// Subjects returns the subjects with (s, pred, obj) in K, in the order
// they were added. The returned slice is owned by the store and must not
// be mutated.
func (s *Store) Subjects(pred PID, obj ID) []ID {
	return s.pos[pred][obj]
}

// PredicatesBetween returns every direct predicate connecting subj to obj.
func (s *Store) PredicatesBetween(subj, obj ID) []PID {
	return s.so[subj][obj]
}

// OutEdges iterates over the out-neighbourhood of subj, calling fn for each
// (pred, obj) pair. Iteration order over predicates is sorted for
// determinism.
func (s *Store) OutEdges(subj ID, fn func(p PID, o ID)) {
	pm := s.spo[subj]
	var buf [32]PID
	preds := buf[:0]
	for p := range pm {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	for _, p := range preds {
		for _, o := range pm[p] {
			fn(p, o)
		}
	}
}

// NumTriples returns the number of distinct triples.
func (s *Store) NumTriples() int { return s.triples }

// Triples iterates over every triple in the store in one deterministic
// order: ascending subject, sorted predicate, insertion order of objects.
func (s *Store) Triples(fn func(Triple)) {
	for subj := ID(0); int(subj) < len(s.labels); subj++ {
		s.SubjectTriples(subj, fn)
	}
}

// SubjectTriples iterates the triples of one subject in the canonical scan
// order (sorted predicate, insertion order of objects).
func (s *Store) SubjectTriples(subj ID, fn func(Triple)) {
	s.OutEdges(subj, func(p PID, o ID) { fn(Triple{S: subj, P: p, O: o}) })
}
