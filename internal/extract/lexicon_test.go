package extract

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/kbgen"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/text"
)

// FindMentions is the gazetteer as it was before the lexicon: at each
// position, the longest of up to maxMentionTokens joined n-grams the
// knowledge base has an entity for. Lexicon.Find must equal it.
func FindMentions(kb rdf.Graph, toks []string) []Mention {
	var out []Mention
	i := 0
	for i < len(toks) {
		matched := false
		maxLen := maxMentionTokens
		if rem := len(toks) - i; rem < maxLen {
			maxLen = rem
		}
		for l := maxLen; l >= 1; l-- {
			surface := text.Join(toks[i : i+l])
			ents := kb.EntitiesByLabel(surface)
			if len(ents) == 0 {
				continue
			}
			// Single-token stopwords ("the") are never entity mentions.
			if l == 1 && text.IsStopword(toks[i]) {
				continue
			}
			out = append(out, Mention{
				Span:     text.Span{Start: i, End: i + l},
				Surface:  surface,
				Entities: ents,
			})
			i += l
			matched = true
			break
		}
		if !matched {
			i++
		}
	}
	return out
}

// TestLexiconEqualsReferenceLoop is the lexicon's licence to replace the
// loop above: over every question of the training corpus, 200 complex
// questions and every sub-span of each (what the δ oracle parses), Find
// returns the reference's mentions — spans, surfaces, entity IDs, order —
// and Has the reference's verdict, on the sharded store and on its mapped
// image, with the labels that stress the rules added to the world.
func TestLexiconEqualsReferenceLoop(t *testing.T) {
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 30, Shards: 4})
	odd := []string{
		"Twin Peaks",                        // made ambiguous below
		"The",                               // a stopword-only label
		"It's",                              // stopwords only, two tokens
		"Order of the Bath and Thistle",     // 6 tokens, half of them stopwords
		"Order of the Bath and Thistle Too", // 7 tokens: out of Find's reach, not of Has's
		"Order of the Bath",                 // a prefix of both
		"???",                               // no tokens at all
	}
	store := kb.Store.(*rdf.ShardedStore)
	for _, label := range odd {
		store.Entity(label)
	}
	store.NewAmbiguousEntity("twin peaks")
	store.Literal("Bath and the") // a literal is no entity, whatever it spells

	pairs := corpus.Generate(kb, corpus.Config{Seed: 7, PairsPerIntent: 40, NoiseRate: 0.15})
	questions := corpus.Questions(pairs)
	for _, cp := range corpus.ComposeComplex(kb, 17, 200) {
		questions = append(questions, cp.Q)
	}
	for _, label := range odd {
		questions = append(questions, "who founded "+label+" and when?", label)
	}
	questions = append(questions, "", "the the the", "is the order of the bath and thistle too old or the twin peaks")

	path := filepath.Join(t.TempDir(), "world.img")
	if err := snapshot.WriteImageFile(path, kb.Store); err != nil {
		t.Fatal(err)
	}
	im, err := snapshot.OpenImage(path, snapshot.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()

	for _, backend := range []struct {
		name string
		kb   rdf.Graph
	}{{"sharded", kb.Store}, {"image", im}} {
		lx := NewLexicon(backend.kb)
		seen := map[string]bool{}
		mentions := 0
		for _, q := range questions {
			toks := text.Tokenize(q)
			for i := range toks {
				for j := i + 1; j <= len(toks); j++ {
					sub := toks[i:j]
					if key := strings.Join(sub, " "); seen[key] {
						continue
					} else {
						seen[key] = true
					}
					got, want := lx.Find(sub), FindMentions(backend.kb, sub)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Find(%q) = %+v, the reference loop says %+v", backend.name, sub, got, want)
					}
					mentions += len(got)
					whole := text.Span{Start: 0, End: len(sub)}
					if got, want := lx.Has(sub, whole), len(backend.kb.EntitiesByLabel(text.Join(sub))) > 0; got != want {
						t.Fatalf("%s: Has(%q) = %v, EntitiesByLabel says %v", backend.name, sub, got, want)
					}
				}
			}
		}
		t.Logf("%s: %d distinct token sequences, %d mentions", backend.name, len(seen), mentions)
		if len(seen) < 10000 || mentions < 5000 {
			t.Errorf("%s: the sweep is too thin to mean anything", backend.name)
		}
		for _, probe := range []struct {
			q    string
			ents int
		}{{"twin peaks", 2}, {"order of the bath and thistle", 1}} {
			if ms := lx.Find(text.Tokenize(probe.q)); len(ms) != 1 || len(ms[0].Entities) != probe.ents {
				t.Errorf("%s: Find(%q) = %+v, want one mention of %d entities", backend.name, probe.q, ms, probe.ents)
			}
		}
		seven := text.Tokenize("order of the bath and thistle too")
		if ms := lx.Find(seven); len(ms) != 1 || ms[0].Span.Len() != 6 || !lx.Has(seven, text.Span{Start: 0, End: 7}) {
			t.Errorf("%s: the 7-token label: Find = %+v, Has = %v; want its 6-token prefix and true", backend.name, ms, lx.Has(seven, text.Span{Start: 0, End: 7}))
		}
	}
}

// TestFindAllocatesOnlyItsResult: a lookup costs no joined n-gram and no
// filtered entity list — nothing but the returned slice's growth.
func TestFindAllocatesOnlyItsResult(t *testing.T) {
	s := rdf.NewShardedStore(1)
	s.Entity("Barack Obama")
	s.Entity("Honolulu")
	s.Entity("New York City")
	lx := NewLexicon(s)
	for _, q := range []string{
		"what is love",
		"when was barack obama born",
		"is barack obama from honolulu or new york city",
	} {
		toks := text.Tokenize(q)
		mentions := len(lx.Find(toks))
		if n := testing.AllocsPerRun(100, func() { lx.Find(toks) }); int(n) > 1+mentions || (mentions == 0 && n != 0) {
			t.Errorf("Find(%q): %v allocs for %d mentions, want at most 1 + one per mention", q, n, mentions)
		}
	}
}
