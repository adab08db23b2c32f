package extract

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/text"
)

// referencePathsBetween is rdf.PathsBetween as it walked before it reused
// its prefix: a new path for every edge visited, every out-edge of the last
// hop visited.
func referencePathsBetween(g *rdf.Store, subj, obj rdf.ID, maxLen int, endFilter func(rdf.PID) bool) []rdf.Path {
	var out []rdf.Path
	var walk func(cur rdf.ID, prefix rdf.Path)
	walk = func(cur rdf.ID, prefix rdf.Path) {
		if len(prefix) >= maxLen {
			return
		}
		g.OutEdges(cur, func(p rdf.PID, o rdf.ID) {
			path := append(append(rdf.Path{}, prefix...), p)
			if o == obj {
				if len(path) == 1 || endFilter == nil || endFilter(p) {
					out = append(out, path)
				}
			}
			if g.KindOf(o) != rdf.KindLiteral {
				walk(o, path)
			}
		})
	}
	walk(subj, nil)
	return out
}

// corpusPairs returns every (entity, value) pair EntityValues examines over
// a corpus of kb: each entity a question mentions, against each node an
// answer span is the label of.
func corpusPairs(kb *kbgen.KB, lx *Lexicon) [][2]rdf.ID {
	var out [][2]rdf.ID
	seen := make(map[[2]rdf.ID]bool)
	for _, qa := range corpus.Generate(kb, corpus.Config{Seed: 43, PairsPerIntent: 40, NoiseRate: 0.15}) {
		aToks := text.Tokenize(qa.A)
		for _, m := range lx.Find(text.Tokenize(qa.Q)) {
			for _, e := range m.Entities {
				for i := range aToks {
					for j := i + 1; j <= len(aToks) && j-i <= maxMentionTokens; j++ {
						for _, v := range kb.Store.NodesByLabel(text.Join(aToks[i:j])) {
							if k := [2]rdf.ID{e, v}; v != e && !seen[k] {
								seen[k] = true
								out = append(out, k)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestPathsBetweenMatchesReference: over every pair the extractor examines
// on each flavor's world, at every path length and with and without the end
// filter, PathsBetween finds the reference walk's paths in its order.
func TestPathsBetweenMatchesReference(t *testing.T) {
	for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
		kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: f})
		pairs := corpusPairs(kb, NewLexicon(kb.Store))
		found := 0
		for _, ev := range pairs {
			for maxLen := 0; maxLen <= 3; maxLen++ {
				for _, filter := range []func(rdf.PID) bool{kb.EndFilter, nil} {
					got := rdf.PathsBetween(kb.Store, ev[0], ev[1], maxLen, filter)
					want := referencePathsBetween(kb.Store, ev[0], ev[1], maxLen, filter)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: PathsBetween(%d, %d, %d) = %v, the reference walk says %v", f, ev[0], ev[1], maxLen, got, want)
					}
					found += len(got)
				}
			}
		}
		t.Logf("%s: %d pairs, %d paths", f, len(pairs), found)
		if len(pairs) < 500 || found < 1000 {
			t.Errorf("%s: %d pairs and %d paths are too few to mean anything", f, len(pairs), found)
		}
	}
}

// TestPathsBetweenAllocatesOnlyItsResult: a search allocates the paths it
// returns — one slice of them over one backing array — and nothing when it
// finds none.
func TestPathsBetweenAllocatesOnlyItsResult(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase})
	pairs := corpusPairs(kb, NewLexicon(kb.Store))
	withPaths, without := 0, 0
	for i, ev := range pairs {
		if i%17 != 0 { // a sample keeps the test fast
			continue
		}
		want := 0.0
		if len(rdf.PathsBetween(kb.Store, ev[0], ev[1], 3, kb.EndFilter)) > 0 {
			want = 2
			withPaths++
		} else {
			without++
		}
		if n := testing.AllocsPerRun(5, func() { rdf.PathsBetween(kb.Store, ev[0], ev[1], 3, kb.EndFilter) }); n != want {
			t.Fatalf("PathsBetween(%d, %d): %v allocs, want %v", ev[0], ev[1], n, want)
		}
	}
	if withPaths == 0 || without == 0 {
		t.Fatalf("sample has %d pairs with paths and %d without; want both", withPaths, without)
	}
}
