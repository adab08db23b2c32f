// Package world is the paper's offline procedure over a synthetic world:
// it generates the knowledge base and the QA corpus, learns P(p|t) by EM
// (Sec 4), builds the decomposition statistics (Sec 5.2) and wires the
// comparison systems. kbqa serves what Learn returns; eval adds what only
// the experiments read.
package world

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/kbgen"
	"repro/internal/learn"
)

// Config parameterizes a full offline build. A zero Scale or
// PairsPerIntent takes the generators' defaults.
type Config struct {
	Flavor         kbgen.Flavor
	Seed           int64
	Scale          int
	PairsPerIntent int
	NoiseRate      float64
}

// DefaultConfig returns the configuration of the servers' and the
// experiment suite's worlds: large enough for stable statistics, small
// enough to train in under a second per flavor. The per-flavor corpus
// sizes reflect the paper's coverage asymmetry: learning over KBA extracts
// far more (template, predicate) evidence from the same Yahoo! Answers
// corpus than the smaller public KBs do (Table 12), which we reproduce by
// giving the bigger KB more usable pairs per intent.
func DefaultConfig(f kbgen.Flavor) Config {
	pairs := 40
	switch f {
	case kbgen.KBA:
		pairs = 80
	case kbgen.DBpedia:
		pairs = 28
	}
	return Config{Flavor: f, Seed: 42, Scale: kbgen.DefaultScale, PairsPerIntent: pairs, NoiseRate: 0.15}
}

// World is a learned KBQA instance: the knowledge base, the corpus it
// learned from, the model, the decomposition statistics and the comparison
// systems.
type World struct {
	Cfg Config
	KB  *kbgen.KB
	// Symbols is KB.Store compiled for the question path; its mention
	// lexicon serves the learner, the baselines and every engine.
	Symbols *core.Symbols
	Pairs   []corpus.Pair
	Model   *learn.Model
	Stats   *decompose.Stats

	// Systems are the comparison QA systems, keyed by short name:
	// keyword, synonym, graph and rule.
	Systems map[string]baseline.System
}

// Learner returns a learner wired to this world's substrates.
func (w *World) Learner() *learn.Learner {
	return &learn.Learner{
		KB:       w.KB.Store,
		Taxonomy: w.KB.Taxonomy,
		Extractor: &extract.Extractor{
			KB:         w.KB.Store,
			Lexicon:    w.Symbols.Lexicon,
			MaxPathLen: 3,
			EndFilter:  w.KB.EndFilter,
			PredClass:  w.KB.ClassOf,
		},
	}
}

// Learn generates the KB and corpus, runs the offline procedure
// (entity–value extraction, EM, decomposition statistics) and wires the
// baselines. It returns the EM observations beside the world: only the
// experiments read them.
func Learn(cfg Config) (*World, []learn.Observation) {
	w := &World{Cfg: cfg}
	w.KB = kbgen.Generate(kbgen.Config{Seed: cfg.Seed, Flavor: cfg.Flavor, Scale: cfg.Scale})
	w.Symbols = core.CompileSymbols(w.KB.Store)
	w.Pairs = corpus.Generate(w.KB, corpus.Config{
		Seed:           cfg.Seed + 1,
		PairsPerIntent: cfg.PairsPerIntent,
		NoiseRate:      cfg.NoiseRate,
	})

	learner := w.Learner()
	qa := make([]learn.QA, len(w.Pairs))
	for i, p := range w.Pairs {
		qa[i] = learn.QA{Q: p.Q, A: p.A}
	}
	obs := learner.BuildObservations(qa)
	w.Model = learner.EM(obs)
	w.Stats = decompose.BuildStats(corpus.Questions(w.Pairs), w.Symbols.Lexicon.Has)

	lex, mentions := baseline.DefaultLexicon(), w.Symbols.Lexicon
	w.Systems = map[string]baseline.System{
		"keyword": &baseline.Keyword{KB: w.KB.Store, Mentions: mentions},
		"synonym": &baseline.Synonym{KB: w.KB.Store, Mentions: mentions, Lexicon: lex},
		"graph":   &baseline.GraphMatch{KB: w.KB.Store, Mentions: mentions, Lexicon: lex, PathSynonyms: baseline.DefaultPathSynonyms()},
		"rule":    &baseline.Rule{KB: w.KB.Store},
	}
	return w, obs
}
