// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec 7), one bench per experiment, plus micro-benchmarks of the hot
// paths and the ablation benches called out in DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/decompose"
	"repro/internal/eval"
	"repro/internal/expand"
	"repro/internal/infobox"
	"repro/internal/kbgen"
	"repro/internal/learn"
	"repro/internal/rdf"
	"repro/internal/text"
	"repro/kbqa"
)

var (
	suiteOnce sync.Once
	suite     *eval.Suite
)

// benchSuite builds the shared three-world suite once.
func benchSuite(b *testing.B) *eval.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = eval.NewSuite()
		// Pre-warm all worlds so per-bench numbers exclude training.
		for _, f := range []kbgen.Flavor{kbgen.KBA, kbgen.Freebase, kbgen.DBpedia} {
			suite.World(f)
		}
	})
	return suite
}

// ---------------------------------------------------------------------------
// One bench per table of the paper.
// ---------------------------------------------------------------------------

func BenchmarkTable04ValidK(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Table4()
		if rows[0].Valid[0] == 0 {
			b.Fatal("degenerate valid(k)")
		}
	}
}

func BenchmarkTable05Benchmarks(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table5()) == 0 {
			b.Fatal("no benchmarks")
		}
	}
}

func BenchmarkTable06Choices(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Table6().TemplatesPerEntityQ <= 0 {
			b.Fatal("degenerate table 6")
		}
	}
}

func BenchmarkTable07QALD5(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table7()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable08QALD3(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table8()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable09QALD1(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table9()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable10WebQuestions(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table10()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable11Hybrid(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table11()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable12Coverage(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table12()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable13Precision(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table13()) != 2 {
			b.Fatal("want 2 rows")
		}
	}
}

func BenchmarkTable14Latency(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table14()) != 3 {
			b.Fatal("want 3 rows")
		}
	}
}

func BenchmarkTable15Complex(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table15()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable16Expansion(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Table16().PredsExpanded == 0 {
			b.Fatal("no expanded predicates")
		}
	}
}

func BenchmarkTable17Templates(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table17()) == 0 {
			b.Fatal("no templates")
		}
	}
}

func BenchmarkTable18ExpandedPredicates(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Table18()) == 0 {
			b.Fatal("no expanded predicates")
		}
	}
}

func BenchmarkEntityValueID(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.EntityValueID(50)
		if r.JointRight == 0 {
			b.Fatal("joint extraction degenerate")
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.
// ---------------------------------------------------------------------------

// BenchmarkOnlineAnswerBFQ is the per-question online inference (the
// paper's 79ms row scaled to the synthetic world).
func BenchmarkOnlineAnswerBFQ(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	qs := make([]string, 0, 64)
	for _, p := range w.Pairs {
		if !p.Noise {
			qs = append(qs, p.Q)
			if len(qs) == 64 {
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.Answer(context.Background(), qs[i%len(qs)], 0, false)
	}
}

// BenchmarkOnlineAnswerComplex measures two-hop question answering
// including decomposition.
func BenchmarkOnlineAnswerComplex(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	cps := corpus.ComposeComplex(w.KB, 5, 16)
	if len(cps) == 0 {
		b.Skip("no complex questions")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.Answer(context.Background(), cps[i%len(cps)].Q, 0, false)
	}
}

// BenchmarkEM measures full EM training over the prebuilt observations.
func BenchmarkEM(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.DBpedia)
	learner := w.Learner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := learner.EM(w.Obs)
		if m.NumTemplates() == 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkObservationExtraction measures entity-value extraction +
// candidate building over 100 QA pairs.
func BenchmarkObservationExtraction(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.DBpedia)
	learner := w.Learner()
	qa := make([]learn.QA, 0, 100)
	for _, p := range w.Pairs[:100] {
		qa = append(qa, learn.QA{Q: p.Q, A: p.A})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learner.BuildObservations(qa)
	}
}

// BenchmarkDecomposeDP measures Algorithm 2 on a two-hop question.
func BenchmarkDecomposeDP(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	cps := corpus.ComposeComplex(w.KB, 5, 4)
	if len(cps) == 0 {
		b.Skip("no complex questions")
	}
	q := cps[0].Q
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Engine.Answer(context.Background(), q, 0, false)
	}
}

// BenchmarkExpandBFS measures the sequential k=3 scan+join expansion over
// the full KB (expand.Expand regardless of store layout, for comparability
// with earlier commits; the parallel path has BenchmarkExpandParallel).
func BenchmarkExpandBFS(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := expand.Expand(w.KB.Store, expand.Config{MaxLen: 3, EndFilter: w.KB.EndFilter, KeepAllLengths: true})
		if len(res.Triples) == 0 {
			b.Fatal("no triples")
		}
	}
}

// BenchmarkStoreLookups measures the three index access paths.
func BenchmarkStoreLookups(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	store := w.KB.Store
	ents := store.Entities()
	pop, _ := store.PredID("population")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ents[i%len(ents)]
		store.Objects(e, pop)
		rdf.OutDegree(store, e)
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md Sec 5).
// ---------------------------------------------------------------------------

// BenchmarkAblationEMvsCount compares EM against single-pass counting.
func BenchmarkAblationEMvsCount(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.DBpedia)
	learner := w.Learner()
	b.Run("em", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learner.EM(w.Obs)
		}
	})
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.CountEstimate(w.Obs)
		}
	})
}

// BenchmarkAblationRefinement compares observation building with and
// without answer-type refinement (Sec 4.1.1).
func BenchmarkAblationRefinement(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.DBpedia)
	qa := make([]learn.QA, 0, 200)
	for _, p := range w.Pairs[:200] {
		qa = append(qa, learn.QA{Q: p.Q, A: p.A})
	}
	b.Run("on", func(b *testing.B) {
		l := w.Learner()
		for i := 0; i < b.N; i++ {
			l.BuildObservations(qa)
		}
	})
	b.Run("off", func(b *testing.B) {
		l := w.Learner()
		l.Extractor.DisableRefinement = true
		for i := 0; i < b.N; i++ {
			l.BuildObservations(qa)
		}
	})
}

// BenchmarkAblationReductionOnS compares expansion from corpus entities
// only (the paper's optimization) against all entities.
func BenchmarkAblationReductionOnS(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	seen := make(map[rdf.ID]bool)
	var sources []rdf.ID
	for _, p := range w.Pairs {
		if !seen[p.GoldEntity] {
			seen[p.GoldEntity] = true
			sources = append(sources, p.GoldEntity)
		}
	}
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expand.Expand(w.KB.Store, expand.Config{MaxLen: 3, Sources: sources, EndFilter: w.KB.EndFilter, KeepAllLengths: true})
		}
	})
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			expand.Expand(w.KB.Store, expand.Config{MaxLen: 3, EndFilter: w.KB.EndFilter, KeepAllLengths: true})
		}
	})
}

// BenchmarkAblationContext compares context-aware conceptualization with
// the prior-only variant.
func BenchmarkAblationContext(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	ctx := text.Tokenize("how many people are there in")
	b.Run("context", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.KB.Taxonomy.Conceptualize("paris", ctx)
		}
	})
	b.Run("prior", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.KB.Taxonomy.Concepts("paris")
		}
	})
}

// BenchmarkAblationExpansionK sweeps the expansion length bound.
func BenchmarkAblationExpansionK(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	ib := infobox.Build(w.KB.Store, infobox.Config{Seed: 1})
	top := expand.TopEntitiesByFrequency(w.KB.Store, 100)
	for _, k := range []int{1, 2, 3, 4} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expand.ValidK(w.KB.Store, top, k, w.KB.EndFilter, ib.Has)
			}
		})
	}
}

// BenchmarkBaselineLatency isolates per-system answer latency (the raw
// material of Table 14).
func BenchmarkBaselineLatency(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.DBpedia)
	q := ""
	for _, p := range w.Pairs {
		if !p.Noise {
			q = p.Q
			break
		}
	}
	for _, name := range []string{"kbqa", "keyword", "synonym", "graph", "rule"} {
		sys := w.Systems[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.Answer(q)
			}
		})
	}
}

// BenchmarkBootstrap measures BOA pattern learning (Table 12's baseline).
func BenchmarkBootstrap(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.Freebase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := baseline.Bootstrap(w.KB.Store, w.Symbols.Lexicon, w.WebDocs)
		if m.NumPatterns() == 0 {
			b.Fatal("no patterns")
		}
	}
}

// ---------------------------------------------------------------------------
// Serving-runtime benches (internal/serve behind kbqa.Server).
// ---------------------------------------------------------------------------

var (
	serveOnce sync.Once
	serveSys  *kbqa.System // the system both servers wrap
	serveCold *kbqa.Server // caching disabled: every Ask pays the engine
	serveWarm *kbqa.Server // default cache, pre-warmed over serveQs
	serveQs   []string
)

// serveFixture builds one system and two serving runtimes around it.
func serveFixture(b *testing.B) {
	b.Helper()
	serveOnce.Do(func() {
		sys, err := kbqa.Build(kbqa.Options{Flavor: "freebase", Seed: 42})
		if err != nil {
			panic(err)
		}
		serveSys = sys
		serveQs = sys.SampleQuestions(64)
		serveCold, err = sys.Server(kbqa.ServerOptions{CacheEntries: -1})
		if err != nil {
			panic(err)
		}
		serveWarm, err = sys.Server(kbqa.ServerOptions{})
		if err != nil {
			panic(err)
		}
		for _, q := range serveQs {
			serveWarm.Query(context.Background(), q)
		}
	})
	if len(serveQs) == 0 {
		b.Skip("no sample questions")
	}
}

// BenchmarkServeCold is the uncached serving path: full pipeline plus one
// engine call per request.
func BenchmarkServeCold(b *testing.B) {
	serveFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveCold.Query(ctx, serveQs[i%len(serveQs)])
	}
}

// BenchmarkServeWarmCache serves every request from the sharded LRU cache;
// the acceptance bar is ≥10× BenchmarkServeCold throughput.
func BenchmarkServeWarmCache(b *testing.B) {
	serveFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveWarm.Query(ctx, serveQs[i%len(serveQs)])
	}
}

// BenchmarkBatchAsk measures the batch executor fanning 64 uncached
// questions across the worker pool (one op = one 64-question batch).
func BenchmarkBatchAsk(b *testing.B) {
	serveFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := serveCold.QueryBatch(ctx, serveQs)
		if len(items) != len(serveQs) {
			b.Fatal("short batch")
		}
	}
}

// BenchmarkQueryTopK tracks the cost of interpretation ranking in the
// unified Query API: the engine surfaces the top-5 scored (entity,
// template, predicate) triples instead of discarding all but the argmax.
// Compare with BenchmarkServeCold (topK=0 equivalent path) to price the
// ranking itself.
func BenchmarkQueryTopK(b *testing.B) {
	serveFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := serveSys.Query(ctx, serveQs[i%len(serveQs)], kbqa.WithTopK(5), kbqa.WithoutVariants())
		if err == nil && len(res.Interpretations) == 0 {
			b.Fatal("no interpretations ranked")
		}
	}
}

// BenchmarkQueryServedTopK is BenchmarkQueryTopK through the serving
// pipeline's fingerprinted cache: repeats of a (question, topK) pair are
// resident after the first round.
func BenchmarkQueryServedTopK(b *testing.B) {
	serveFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveWarm.Query(ctx, serveQs[i%len(serveQs)], kbqa.WithTopK(5))
	}
}

// BenchmarkDecomposeStats measures fv/fo statistics construction.
func BenchmarkDecomposeStats(b *testing.B) {
	s := benchSuite(b)
	w := s.World(kbgen.DBpedia)
	qs := corpus.Questions(w.Pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decompose.BuildStats(qs, w.Symbols.Lexicon.Has)
	}
}

// ---------------------------------------------------------------------------
// Sharded-store benches (rdf.ShardedStore + expand.ExpandParallel).
// ---------------------------------------------------------------------------

var (
	shardOnce    sync.Once
	shardKB      *kbgen.KB
	shardFlat    *rdf.ShardedStore
	shardSharded *rdf.ShardedStore
)

// shardFixture generates one KB an order of magnitude larger than the eval
// worlds, so the k-round scan+join dominates and the per-round merge is
// amortized, then shards it. The one-shard store and the 8-shard store share
// node IDs, so both layouts answer identical queries.
func shardFixture(b *testing.B) {
	b.Helper()
	shardOnce.Do(func() {
		shardKB = kbgen.Generate(kbgen.Config{Seed: 9, Flavor: kbgen.Freebase, Scale: 150})
		shardFlat = shardKB.Store.(*rdf.ShardedStore)
		shardSharded = rdf.Repartition(shardFlat, 8)
	})
}

// BenchmarkExpandParallel compares the sequential k=3 expansion against the
// one-worker-per-shard expansion across GOMAXPROCS settings. On a machine
// with >= 4 cores the procs=4 and procs=8 rows should run >= 2x faster than
// sequential; both paths produce identical results (asserted by
// TestExpandParallelMatchesSequential).
func BenchmarkExpandParallel(b *testing.B) {
	shardFixture(b)
	cfg := expand.Config{MaxLen: 3, EndFilter: shardKB.EndFilter, KeepAllLengths: true}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(expand.Expand(shardFlat, cfg).Triples) == 0 {
				b.Fatal("no triples")
			}
		}
	})
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=8/procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(expand.ExpandParallel(context.Background(), shardSharded, cfg).Triples) == 0 {
					b.Fatal("no triples")
				}
			}
		})
	}
}

// BenchmarkProbeSharded measures the online point-probe path V(e, p+) on
// both layouts under concurrent load: the store serves read-only probes
// from GOMAXPROCS goroutines, the contention pattern of the serving
// runtime's worker pool.
func BenchmarkProbeSharded(b *testing.B) {
	shardFixture(b)
	path, ok := rdf.ParsePath(shardFlat, "marriage→person→name")
	if !ok {
		b.Fatal("expanded predicate missing")
	}
	ents := shardFlat.Entities()
	layouts := []struct {
		name string
		g    rdf.Graph
	}{
		{"flat", shardFlat},
		{"sharded", shardSharded},
	}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					e := ents[i%len(ents)]
					rdf.PathObjects(l.g, e, path)
					l.g.Objects(e, 0)
					i++
				}
			})
		})
	}
}

// BenchmarkLoadNTriples compares sequential parse+index against parse plus
// parallel per-shard index build on the same serialized KB.
func BenchmarkLoadNTriples(b *testing.B) {
	shardFixture(b)
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(shardFlat, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rdf.LoadNTriples(bytes.NewReader(data), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rdf.LoadNTriples(bytes.NewReader(data), 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}
