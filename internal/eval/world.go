package eval

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/extract"
	"repro/internal/infobox"
	"repro/internal/kbgen"
	"repro/internal/learn"
)

// WorldConfig parameterizes a full offline build.
type WorldConfig struct {
	Flavor         kbgen.Flavor
	Seed           int64
	Scale          int
	PairsPerIntent int
	NoiseRate      float64
	// Shards > 1 partitions the knowledge base into that many
	// subject-hash shards: predicate expansion runs one worker per shard
	// (expand.Expand) and online probes hash to their shard. <= 1
	// is a one-shard world. Answers are identical either way; only the
	// layout and parallelism change.
	Shards int
}

// DefaultWorldConfig returns the configuration used by the experiment
// suite: large enough for stable statistics, small enough to train in
// under a second per flavor. The per-flavor corpus sizes reflect the
// paper's coverage asymmetry: learning over KBA extracts far more
// (template, predicate) evidence from the same Yahoo! Answers corpus than
// the smaller public KBs do (Table 12), which we reproduce by giving the
// bigger KB more usable pairs per intent.
func DefaultWorldConfig(f kbgen.Flavor) WorldConfig {
	pairs := 40
	switch f {
	case kbgen.KBA:
		pairs = 80
	case kbgen.Freebase:
		pairs = 40
	case kbgen.DBpedia:
		pairs = 28
	}
	return WorldConfig{Flavor: f, Seed: 42, Scale: kbgen.DefaultScale, PairsPerIntent: pairs, NoiseRate: 0.15, Shards: 4}
}

// World bundles a fully built and trained KBQA instance with everything
// the experiments need: the raw corpus, the learned model, the
// decomposition statistics, the infobox and the comparison systems.
type World struct {
	Cfg WorldConfig
	KB  *kbgen.KB
	// Symbols is KB.Store compiled for the question path; its mention
	// lexicon serves the learner, the baselines and every engine.
	Symbols *core.Symbols
	Pairs   []corpus.Pair
	Obs     []learn.Observation
	Model   *learn.Model
	Stats   *decompose.Stats
	Engine  *core.Engine
	Infobox *infobox.Infobox
	WebDocs []string

	// Systems are the comparison QA systems, keyed by short name:
	// keyword, synonym, graph, rule, and kbqa once BuildWorld wired Engine.
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

// BuildWorld is LearnWorld with the online engine wired over the
// in-process store, answering as the "kbqa" system.
func BuildWorld(cfg WorldConfig) *World {
	w := LearnWorld(cfg)
	w.Engine = core.NewEngine(w.Symbols, core.LocalIndex(w.KB.Store), w.KB.Taxonomy, w.Model, w.Stats)
	w.Systems["kbqa"] = &KBQASystem{Engine: w.Engine, Label: "KBQA+" + w.Cfg.Flavor.String()}
	return w
}

// LearnWorld generates the KB and corpus, runs the offline procedure
// (entity–value extraction, EM, decomposition statistics, predicate
// expansion support structures) and wires the baselines. Engine is left
// nil for the caller to build over the index it reads through.
func LearnWorld(cfg WorldConfig) *World {
	if cfg.Scale <= 0 {
		cfg.Scale = kbgen.DefaultScale
	}
	if cfg.PairsPerIntent <= 0 {
		cfg.PairsPerIntent = 40
	}
	w := &World{Cfg: cfg}
	w.KB = kbgen.Generate(kbgen.Config{Seed: cfg.Seed, Flavor: cfg.Flavor, Scale: cfg.Scale, Shards: cfg.Shards})
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
	w.Obs = learner.BuildObservations(qa)
	w.Model = learner.EM(w.Obs)

	w.Stats = decompose.BuildStats(corpus.Questions(w.Pairs), w.Symbols.Lexicon.Has)
	w.Infobox = infobox.Build(w.KB.Store, infobox.Config{Seed: cfg.Seed + 2})
	w.WebDocs = corpus.GenerateWebDocs(w.KB, cfg.Seed+3, cfg.PairsPerIntent)

	lex, mentions := baseline.DefaultLexicon(), w.Symbols.Lexicon
	w.Systems = map[string]baseline.System{
		"keyword": &baseline.Keyword{KB: w.KB.Store, Mentions: mentions},
		"synonym": &baseline.Synonym{KB: w.KB.Store, Mentions: mentions, Lexicon: lex},
		"graph":   &baseline.GraphMatch{KB: w.KB.Store, Mentions: mentions, Lexicon: lex, PathSynonyms: baseline.DefaultPathSynonyms()},
		"rule":    &baseline.Rule{KB: w.KB.Store},
	}
	return w
}
