// Package infobox synthesizes the Wikipedia-Infobox ground truth used to
// select the expansion length k (Sec 6.3, Table 4).
//
// The paper samples expanded (s, p+, o) triples and checks how many have a
// corresponding subject–value entry in Wikipedia's Infobox; meaningful
// relations ("spouse: Michelle Obama") appear there, meaningless chains
// ("marriage→person→dob") do not. Our synthetic infobox is built from
// generation knowledge, independently of the BFS under test:
//
//   - literal-valued direct facts are included with a fixed keep
//     rate (infoboxes are incomplete for plain attributes);
//   - entity-valued direct facts contribute the object's name AND alias
//     surface forms (infoboxes write values as free text);
//   - CVT structures contribute their intended end value (the spouse's
//     name), because that is exactly what an infobox lists.
package infobox

import (
	"math/rand"

	"repro/internal/rdf"
	"repro/internal/text"
)

// Infobox is a set of (subject, value-surface-form) pairs regarded as
// meaningful facts.
type Infobox struct {
	pairs map[key]bool
}

type key struct {
	s     rdf.ID
	value string
}

// literalKeepRate is the probability a literal-valued direct fact is
// listed.
const literalKeepRate = 0.6

// skipPreds are the identity and bookkeeping predicates whose facts never
// appear as infobox entries.
var skipPreds = map[string]bool{"name": true, "alias": true, "category": true}

// Build constructs the infobox for every entity of the store; seed drives
// the literal sampling.
func Build(s *rdf.Store, seed int64) *Infobox {
	r := rand.New(rand.NewSource(seed))
	ib := &Infobox{pairs: make(map[key]bool)}

	nameID, hasName := s.PredID("name")
	aliasID, hasAlias := s.PredID("alias")

	surfaceForms := func(n rdf.ID) []string {
		if s.KindOf(n) == rdf.KindLiteral {
			return []string{s.Label(n)}
		}
		var out []string
		if hasName {
			for _, o := range s.Objects(n, nameID) {
				out = append(out, s.Label(o))
			}
		}
		if hasAlias {
			for _, o := range s.Objects(n, aliasID) {
				out = append(out, s.Label(o))
			}
		}
		if len(out) == 0 {
			out = append(out, s.Label(n))
		}
		return out
	}

	for _, e := range s.Entities() {
		s.OutEdges(e, func(p rdf.PID, o rdf.ID) {
			if skipPreds[s.PredName(p)] {
				return
			}
			switch s.KindOf(o) {
			case rdf.KindLiteral:
				if r.Float64() < literalKeepRate {
					ib.add(e, s.Label(o))
				}
			case rdf.KindEntity:
				for _, f := range surfaceForms(o) {
					ib.add(e, f)
				}
			case rdf.KindMediator:
				// The CVT's intended value: the entity the mediator points
				// to, listed by its primary name only — an infobox writes
				// "spouse: Michelle Obama", not her alias.
				s.OutEdges(o, func(_ rdf.PID, n rdf.ID) {
					if s.KindOf(n) != rdf.KindEntity {
						return
					}
					if hasName {
						for _, nm := range s.Objects(n, nameID) {
							ib.add(e, s.Label(nm))
						}
					}
				})
			}
		})
	}
	return ib
}

func (ib *Infobox) add(s rdf.ID, value string) {
	ib.pairs[key{s: s, value: text.Normalize(value)}] = true
}

// Has reports whether the infobox lists value (by surface form) for the
// subject.
func (ib *Infobox) Has(s rdf.ID, valueLabel string) bool {
	return ib.pairs[key{s: s, value: text.Normalize(valueLabel)}]
}
