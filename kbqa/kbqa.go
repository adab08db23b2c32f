// Package kbqa is the public API of the KBQA reproduction: template-based
// question answering over an RDF knowledge base, learned from a QA corpus
// (Cui et al., "KBQA: Learning Question Answering over QA Corpora and
// Knowledge Bases", VLDB 2017).
//
// The quickest way in is Build, which synthesizes a knowledge base and QA
// corpus (the library's stand-ins for Freebase/DBpedia and Yahoo! Answers),
// runs the full offline procedure — joint entity–value extraction, EM
// estimation of P(p|t), predicate expansion and decomposition statistics —
// and returns a ready System. Query is the single online entry point: it
// auto-routes binary factoid, complex (multi-hop) and
// ranking/comparison/listing questions, honours context cancellation down
// to the knowledge-base probe loops, and returns the top-K ranked
// interpretations alongside the answer:
//
//	sys, err := kbqa.Build(kbqa.Options{Flavor: "freebase"})
//	res, err := sys.Query(ctx, "What is the population of Dunford?",
//	    kbqa.WithTopK(5))
//	// res.Answer, res.Interpretations, res.Timings
//
// Failures are typed — ErrNoEntity, ErrNoTemplate, ErrNoAnswer, or the
// context's own error — so callers can tell "unanswerable" from "timed
// out" (see ErrorCode). Systems compose through the Answerer interface:
// Chain(sys, fallback) implements the paper's hybrid deployments over any
// mix of KBQA systems, baselines (Baseline) and servers.
//
// For corpora of your own, see System.Learn; for serving traffic,
// System.Server.
package kbqa

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/eval"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/shardrpc"
)

// Options configures Build. The zero value builds the default Freebase
// world.
type Options struct {
	// Flavor selects the synthetic knowledge base: "kba", "freebase"
	// (default) or "dbpedia".
	Flavor string
	// Seed drives all generation; equal seeds give identical systems.
	Seed int64
	// Scale is the base number of entities per category (default 30).
	Scale int
	// PairsPerIntent sizes the training corpus (default 40).
	PairsPerIntent int
	// NoiseRate is the fraction of corrupted training pairs. nil keeps
	// the default (0.15); Noise(0) requests a noise-free corpus — a
	// pointer rather than a float so the zero value stays distinguishable
	// from "use the default".
	NoiseRate *float64
	// Shards selects the knowledge-base layout: the RDF store is
	// partitioned into that many subject-hash shards (offline expansion
	// scans one worker per shard; online probes hash to their shard); 1 is
	// a one-shard world and 0 keeps the default (4). Answers are identical
	// across layouts.
	Shards int
	// ShardServers, when non-empty, distributes the knowledge base: index
	// reads (probes, scans) are served by remote kbqa-shard processes at
	// these addresses instead of the local store, scatter/gathered with
	// consistent-hash placement, hedged requests, and replica failover.
	// Every server must have loaded the same world (same flavor, seed,
	// scale, and shard count — enforced by a fingerprint handshake).
	// Answers are byte-identical to the single-process layouts.
	ShardServers []string
	// ShardReplicas is the replication factor of the shard placement
	// (default 2, clamped to len(ShardServers)).
	ShardReplicas int
	// KBImage, when non-empty, memory-maps a knowledge-base snapshot
	// image (written by SaveKBImage or kbqa-shard -kb-save) and serves
	// all index reads from it instead of the generated store. The image
	// must hold exactly the world the other options describe — its
	// fingerprint is checked against the built store and a mismatch
	// fails Build. Mutually exclusive with ShardServers. Answers are
	// byte-identical to the in-memory layouts; Close unmaps the image.
	KBImage string
}

// Noise returns a NoiseRate option value; Noise(0) requests a noise-free
// training corpus.
func Noise(rate float64) *float64 { return &rate }

// ParseFlavor converts a flavor name to the kbgen flavor.
func ParseFlavor(name string) (kbgen.Flavor, error) {
	f, err := kbgen.ParseFlavor(name)
	if err != nil {
		return 0, fmt.Errorf("kbqa: %w", err)
	}
	return f, nil
}

// worldConfig resolves Options onto the per-flavor defaults; every zero
// field keeps its default, and NoiseRate distinguishes "unset" (nil) from
// an explicit 0 so noise-free corpora are expressible.
func (o Options) worldConfig() (eval.WorldConfig, error) {
	f, err := ParseFlavor(o.Flavor)
	if err != nil {
		return eval.WorldConfig{}, err
	}
	cfg := eval.DefaultWorldConfig(f)
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Scale > 0 {
		cfg.Scale = o.Scale
	}
	if o.PairsPerIntent > 0 {
		cfg.PairsPerIntent = o.PairsPerIntent
	}
	if o.NoiseRate != nil {
		cfg.NoiseRate = *o.NoiseRate
	}
	if o.Shards != 0 {
		cfg.Shards = o.Shards
	}
	return cfg, nil
}

// Step is one hop of an answered complex question.
type Step struct {
	// Question is the bound BFQ whose answer won the step; Questions
	// lists every bound BFQ the step actually executed (execution fans
	// out over all values of the previous step).
	Question  string   `json:"question"`
	Questions []string `json:"questions,omitempty"`
	Template  string   `json:"template,omitempty"`
	Predicate string   `json:"predicate,omitempty"`
	Value     string   `json:"value,omitempty"`
}

// Answer is a successful BFQ / complex-question reply.
type Answer struct {
	// Value is the argmax answer.
	Value string `json:"value"`
	// Values is the full value set of the winning interpretation (band
	// members, etc.).
	Values []string `json:"values,omitempty"`
	// Predicate is the knowledge-base predicate the question mapped to,
	// in arrow notation for expanded predicates.
	Predicate string `json:"predicate,omitempty"`
	// Template is the learned template that matched.
	Template string `json:"template,omitempty"`
	// Score is the (unnormalized) probability mass of Value.
	Score float64 `json:"score,omitempty"`
	// Steps traces complex-question execution (empty for plain BFQs).
	Steps []Step `json:"steps,omitempty"`
}

// VariantAnswer is the reply to a ranking, comparison or listing question.
type VariantAnswer struct {
	// Kind is "ranking", "comparison" or "listing".
	Kind string `json:"kind"`
	// Entities are the winning entities (the ordered list, for listing).
	Entities []string `json:"entities"`
	// Values aligns with Entities: the predicate values that ranked them.
	Values []string `json:"values"`
	// Predicate is the predicate the variant aggregated over.
	Predicate string `json:"predicate"`
}

// System is a trained KBQA instance. It implements Answerer. Query and the
// other read paths may be used concurrently with Learn/LoadModel: a model
// swap publishes the new engine atomically, and in-flight queries finish
// against the engine they started with.
type System struct {
	// cur is the published online half; Build, Learn and LoadModel store
	// it, serialized by swapMu, and every reader loads it once per call.
	cur    atomic.Pointer[online]
	swapMu sync.Mutex
	// world holds what Build generated and learned; the model and
	// statistics serving now are cur's, not world's.
	world *eval.World
	// kb is the local world engines read symbols from, compiled once for
	// all of them: the built store, or the image when Options.KBImage
	// mapped one. index is the seam they read triples through: kb itself,
	// or the shard pool when Options.ShardServers distributed the KB. Both
	// are set once in Build and immutable afterwards.
	kb    *core.Symbols
	index core.Index
	// pool is the shard-server client when distributed (nil otherwise);
	// Close releases it.
	pool *shardrpc.Pool
	// img is the memory-mapped snapshot image when Options.KBImage
	// loaded one (nil otherwise); Close unmaps it.
	img *snapshot.Image
}

// online is one published state of a System's online half: the engine,
// the model it compiled (with the statistics in engine.Stats) and their
// content tag, which a Server leads its cache keys with — so an answer is
// keyed by exactly what computed it.
type online struct {
	engine *core.Engine
	model  *learn.Model
	tag    string
	// swaps counts the states published before this one: the model swaps
	// since Build (Server.Generation).
	swaps uint64
}

// newOnline compiles model and stats into an engine and tags them.
func (s *System) newOnline(model *learn.Model, stats *decompose.Stats) *online {
	return &online{engine: s.newEngine(model, stats), model: model, tag: contentTag(model, stats)}
}

// contentTag is the identity of a (model, statistics) pair: Model.Fingerprint
// folded with Stats.Fingerprint, as 16 hex digits — equal across processes
// for equal content. The fixed width keeps one tag from being a prefix of
// another, which the persistent cache's replay filter needs.
func contentTag(model *learn.Model, stats *decompose.Stats) string {
	return fmt.Sprintf("%016x", model.Fingerprint()^stats.Fingerprint())
}

// publish makes next(prev) the serving state, counting it as one more
// swap; swapMu orders it against every other swap.
func (s *System) publish(next func(prev *online) *online) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	prev := s.cur.Load()
	n := next(prev)
	n.swaps = prev.swaps + 1
	s.cur.Store(n)
}

// Build synthesizes a world and runs the complete offline procedure, then
// builds the online engine over the KB backing the options select. With
// Options.ShardServers set, the locally built world keeps supplying the
// interning tables and the trained model, while knowledge-base index reads
// go over the network.
func Build(o Options) (*System, error) {
	cfg, err := o.worldConfig()
	if err != nil {
		return nil, err
	}
	if o.KBImage != "" && len(o.ShardServers) > 0 {
		return nil, fmt.Errorf("kbqa: KBImage and ShardServers are mutually exclusive")
	}
	s := &System{world: eval.LearnWorld(cfg)}
	s.kb = s.world.Symbols
	s.index = core.LocalIndex(s.world.KB.Store)
	if err := s.wire(o); err != nil {
		//kbqa:nolint errsink — error-path release of whatever wiring already acquired; the build error is the one to surface
		s.Close()
		return nil, err
	}
	s.cur.Store(s.newOnline(s.world.Model, s.world.Stats))
	return s, nil
}

// wire attaches the optional external KB backing — a memory-mapped
// snapshot image or a shard-server pool. On error the System may hold
// partially acquired resources; Build releases them via Close.
func (s *System) wire(o Options) error {
	if len(o.ShardServers) > 0 {
		return s.connectShards(o)
	}
	if o.KBImage != "" {
		return s.openImage(o.KBImage)
	}
	return nil
}

// newEngine builds an online engine over the system's KB backing.
func (s *System) newEngine(model *learn.Model, stats *decompose.Stats) *core.Engine {
	return core.NewEngine(s.kb, s.index, s.world.KB.Taxonomy, model, stats)
}

// openImage rebinds the system's online engine to a memory-mapped
// snapshot image of the world it just built. The image is opened with the
// built store's fingerprint and shard count as expectations, so a stale or
// foreign image fails here instead of answering from the wrong world.
func (s *System) openImage(path string) error {
	im, err := snapshot.OpenImage(path, snapshot.OpenOptions{
		ExpectFingerprint: rdf.WorldFingerprint(s.world.KB.Store),
		ExpectShards:      s.world.KB.Store.NumShards(),
	})
	if err != nil {
		return fmt.Errorf("kbqa: open KB image: %w", err)
	}
	s.img = im
	s.kb = core.CompileSymbols(im)
	s.index = core.LocalIndex(im)
	return nil
}

// SaveKBImage writes the knowledge base as a snapshot image: a binary,
// offset-based file that OpenImage (and Options.KBImage, kbqa-shard
// -kb-image) maps read-only for instant boot. The write is atomic — the
// image appears under path complete or not at all.
func (s *System) SaveKBImage(path string) error {
	return snapshot.WriteImageFile(path, s.world.KB.Store)
}

// connectShards points the system's index reads at a shardrpc pool.
func (s *System) connectShards(o Options) error {
	replicas := o.ShardReplicas
	if replicas <= 0 {
		replicas = 2
	}
	pl, err := shardrpc.NewPlacement(o.ShardServers, s.kb.NumShards(), replicas)
	if err != nil {
		return err
	}
	pool, err := shardrpc.NewPool(shardrpc.PoolOptions{
		Placement:   pl,
		Fingerprint: rdf.WorldFingerprint(s.kb),
	})
	if err != nil {
		return err
	}
	s.pool = pool
	s.index = shardrpc.NewKB(pool)
	return nil
}

// Close releases the system's external resources — the shard-server
// connection pool of a distributed KB, and the memory mapping of a
// snapshot image. Safe (and a no-op) on a single-process in-memory
// system; the system must not be queried afterwards. The returned error
// is the image unmap result: munmap failure means the mapping (and its
// address space) is still live, which the caller may care about.
func (s *System) Close() error {
	if s.pool != nil {
		s.pool.Close()
	}
	if s.img != nil {
		return s.img.Close()
	}
	return nil
}

// QA is one question–answer pair of a training corpus.
type QA = learn.QA

// Learn re-runs the offline learning over a caller-supplied QA corpus
// against this system's knowledge base, replacing the current model and
// decomposition statistics. Use it to train on your own data instead of the
// synthetic corpus. Learn is safe to call while the system is answering:
// the learning runs before the swap and the swap is atomic, with concurrent
// queries finishing against whichever engine they started with. Servers
// built from this system key cached answers by the content of the model
// that computed them, so once Learn returns no query is served an answer
// the old model computed — unless the new model is the same one.
func (s *System) Learn(pairs []QA) {
	learner := s.world.Learner()
	model := learner.Learn(pairs)
	qs := make([]string, len(pairs))
	for i, p := range pairs {
		qs[i] = p.Q
	}
	next := s.newOnline(model, decompose.BuildStats(qs, s.world.Symbols.Lexicon.Has))
	s.publish(func(*online) *online { return next })
}

// TrainingCorpus returns the synthetic QA corpus the system was built with,
// useful as a template for the Learn input format.
func (s *System) TrainingCorpus() []QA {
	out := make([]QA, len(s.world.Pairs))
	for i, p := range s.world.Pairs {
		out[i] = QA{Q: p.Q, A: p.A}
	}
	return out
}

// SaveModel serializes the learned P(p|t) model.
func (s *System) SaveModel(w io.Writer) error {
	return s.cur.Load().model.Save(w)
}

// LoadModel replaces the learned model with one written by SaveModel and
// rewires the online engine over the current decomposition statistics;
// like Learn, the swap is atomic under concurrent queries, and attached
// Servers stop serving the old model's answers once LoadModel returns.
func (s *System) LoadModel(r io.Reader) error {
	m, err := learn.LoadModel(r)
	if err != nil {
		return err
	}
	s.publish(func(prev *online) *online { return s.newOnline(m, prev.engine.Stats) })
	return nil
}

// Stats summarizes the system.
type Stats struct {
	Flavor     string
	Entities   int
	Triples    int
	Predicates int // distinct predicate names in the KB
	Templates  int // learned templates
	Intents    int // learned predicates (direct + expanded)
	CorpusSize int
}

// Stats reports the system's sizes.
func (s *System) Stats() Stats {
	model := s.cur.Load().model
	return Stats{
		Flavor:     s.world.KB.Flavor.String(),
		Entities:   len(s.world.KB.Store.Entities()),
		Triples:    s.world.KB.Store.NumTriples(),
		Predicates: s.world.KB.Store.NumPredicates(),
		Templates:  model.NumTemplates(),
		Intents:    model.NumPredicates(),
		CorpusSize: len(s.world.Pairs),
	}
}

// SampleQuestions returns n answerable questions drawn from the training
// corpus (deduplicated), handy for demos and smoke tests.
func (s *System) SampleQuestions(n int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range s.world.Pairs {
		if p.Noise || seen[p.Q] {
			continue
		}
		seen[p.Q] = true
		out = append(out, p.Q)
		if len(out) == n {
			break
		}
	}
	return out
}

// ComplexQuestions composes n two-hop complex questions over the system's
// knowledge base, each with its acceptable gold answers.
func (s *System) ComplexQuestions(seed int64, n int) []ComplexQuestion {
	var out []ComplexQuestion
	for _, cp := range corpus.ComposeComplex(s.world.KB, seed, n) {
		out = append(out, ComplexQuestion{Q: cp.Q, GoldAnswers: cp.GoldAnswers})
	}
	return out
}

// ComplexQuestion is a generated complex question with gold answers.
type ComplexQuestion struct {
	Q           string
	GoldAnswers []string
}
