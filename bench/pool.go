package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"unicode"

	"repro/kbqa"
)

// class is what the in-process oracle says a question is; the generator a
// question came from only decides whether it has gold answers.
type class int

const (
	classBFQ class = iota
	classComplex
	classUnanswerable
	classVariant
	numClasses
)

var classNames = [numClasses]string{"bfq", "complex", "unanswerable", "variant"}

// Distinct questions the pool must hold per class, so that a cache smaller
// than the pool really is smaller and per-class medians have a sample.
var minDistinct = [numClasses]int{1000, 300, 200, 8}

// Distinct questions the pool takes per class when the world offers more.
// The slowest hundredth of the /ask requests are complex questions, so a
// seed draws many of them: with 320, lat_p99_us of cluster_ask_cold moved
// 15 % from seed to seed on the same code.
var wantDistinct = [numClasses]int{1050, 960, 220, 24}

// The traffic mix, in requests per hundred. The cluster workload drops
// variants: one costs 0.15-0.9 s over shard RPC, so a 3 % share would own
// q_per_s there; that cost is recorded as shardrpc.variant_ms instead.
var (
	mixFull      = [numClasses]int{70, 15, 12, 3}
	mixNoVariant = [numClasses]int{73, 15, 12, 0}
)

// expect is the reply the oracle predicts, in the shape /ask renders it.
type expect struct {
	answered  bool
	answer    string
	values    []string
	predicate string
	template  string
	variant   *kbqa.VariantAnswer
	errorCode string
}

// expectFrom renders an oracle outcome the way cmd/kbqa-server renders a
// Server.Query outcome.
func expectFrom(res *kbqa.Result, err error) expect {
	if err != nil {
		return expect{errorCode: kbqa.ErrorCode(err)}
	}
	e := expect{answered: true}
	if a := res.Answer; a != nil {
		e.answer, e.values, e.predicate, e.template = a.Value, a.Values, a.Predicate, a.Template
	}
	if v := res.Variant; v != nil {
		e.variant = v
		e.answer = strings.Join(v.Entities, ", ")
	}
	return e
}

// askReply is the part of an /ask reply (and of one /batch result) the
// benchmark reads.
type askReply struct {
	Question  string              `json:"question"`
	Answered  bool                `json:"answered"`
	Answer    string              `json:"answer"`
	Values    []string            `json:"values"`
	Predicate string              `json:"predicate"`
	Template  string              `json:"template"`
	Variant   *kbqa.VariantAnswer `json:"variant"`
	Timings   *kbqa.QueryTimings  `json:"timings"`
	ErrorCode string              `json:"error_code"`
}

// matches reports whether a server's reply says what the oracle said.
func (e expect) matches(r *askReply) bool {
	return e.answered == r.Answered &&
		e.answer == r.Answer &&
		e.predicate == r.Predicate &&
		e.template == r.Template &&
		e.errorCode == r.ErrorCode &&
		sameStrings(e.values, r.Values) &&
		reflect.DeepEqual(e.variant, r.Variant)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// question is one distinct question of the pool.
type question struct {
	text  string
	class class
	want  expect
	// gold holds the generator's acceptable answers for questions that came
	// from SampleQuestions or ComplexQuestions; right_share is judged
	// against it, not against the engine's own reply.
	gold []string
}

// right reports whether answer is one of the generator's gold answers: an
// exact match for a complex question, or the value occurring as whole
// words in a training-corpus answer sentence for a BFQ.
func (q *question) right(answer string) bool {
	if answer == "" {
		return false
	}
	a := " " + strings.ToLower(strings.TrimSpace(answer)) + " "
	for _, g := range q.gold {
		if strings.Contains(" "+strings.ToLower(strings.TrimSpace(g))+" ", a) {
			return true
		}
	}
	return false
}

// pool is the seeded set of distinct questions every workload draws from.
type pool struct {
	qs      []question
	byClass [numClasses][]int
}

// Phrasings no learned template covers; %s is an entity label.
var unanswerablePhrasings = []string{
	"why is %s famous?",
	"what is the favourite colour of %s?",
	"tell me about %s",
	"who invented %s and when?",
	"what rhymes with %s?",
	"how do you pronounce %s?",
	"is %s worth a visit?",
	"what do critics say about %s?",
}

var entityFreeQuestions = []string{
	"what is the meaning of life?",
	"how do i bake sourdough bread?",
	"why is the sky blue?",
	"what time is it?",
	"how are you today?",
	"what should i cook for dinner?",
}

// variantGrid fixes which category and attribute the variant questions
// rank over, so their cost (a scan of the category) is the same for every
// seed; the seed picks ordinals, directions, phrasings and entity pairs.
var variantGrid = []struct{ cat, plural, attr string }{
	{"city", "cities", "population"},
	{"city", "cities", "area"},
	{"country", "countries", "population"},
	{"country", "countries", "area"},
	{"company", "companies", "revenue"},
}

// cacheKey folds a question at least as far as the server's cache does
// (it keys on the lower-cased token sequence), so that questions distinct
// here are distinct entries there: "distinct" has to mean what the cache
// under test takes it to mean.
func cacheKey(text string) string {
	return strings.Join(strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}), " ")
}

// buildPool generates the pool for seed from the oracle's public API alone
// and classifies every question by what the oracle answers.
func buildPool(ctx context.Context, oracle *kbqa.System, seed int64) (*pool, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &pool{}
	seen := make(map[string]bool)
	// add asks the oracle and keeps the question if its class is accepted
	// and not yet full; it returns the oracle's result for kept questions.
	add := func(text string, gold []string, accept func(class) bool) (*kbqa.Result, bool) {
		key := cacheKey(text)
		if seen[key] {
			return nil, false
		}
		res, err := oracle.Query(ctx, text)
		if err != nil && !kbqa.IsUnanswerable(err) {
			return nil, false
		}
		c := classBFQ
		switch {
		case err != nil:
			c = classUnanswerable
		case res.Variant != nil:
			c = classVariant
		case len(res.Answer.Steps) > 0:
			c = classComplex
		}
		if !accept(c) || len(p.byClass[c]) >= wantDistinct[c] {
			return nil, false
		}
		seen[key] = true
		p.byClass[c] = append(p.byClass[c], len(p.qs))
		p.qs = append(p.qs, question{text: text, class: c, want: expectFrom(res, err), gold: gold})
		return res, true
	}
	// A generated question keeps its gold answers whatever the oracle makes
	// of it, so an engine that starts refusing questions loses right_share.
	sourced := func(class) bool { return true }
	only := func(want class) func(class) bool { return func(c class) bool { return c == want } }

	corpusAnswers := make(map[string][]string)
	for _, qa := range oracle.TrainingCorpus() {
		corpusAnswers[qa.Q] = append(corpusAnswers[qa.Q], qa.A)
	}
	bfqs := oracle.SampleQuestions(1 << 20)
	rng.Shuffle(len(bfqs), func(i, j int) { bfqs[i], bfqs[j] = bfqs[j], bfqs[i] })
	byCategory := make(map[string][]string) // "$city" -> entity labels, in pool order
	var entities []string
	seenEntity := make(map[string]bool)
	for _, q := range bfqs {
		res, ok := add(q, corpusAnswers[q], sourced)
		if !ok || res == nil || res.Answer == nil || len(res.Interpretations) == 0 {
			continue
		}
		label := res.Interpretations[0].Entity
		if seenEntity[label] {
			continue
		}
		seenEntity[label] = true
		entities = append(entities, label)
		for _, tok := range strings.Fields(res.Answer.Template) {
			if strings.HasPrefix(tok, "$") {
				byCategory[tok] = append(byCategory[tok], label)
			}
		}
	}
	for _, cq := range oracle.ComplexQuestions(seed, 4*wantDistinct[classComplex]) {
		if len(p.byClass[classComplex]) == wantDistinct[classComplex] {
			break
		}
		add(cq.Q, cq.GoldAnswers, sourced)
	}

	for _, q := range entityFreeQuestions {
		add(q, nil, only(classUnanswerable))
	}
	if len(entities) == 0 {
		return nil, fmt.Errorf("pool: no entity labels recovered from %d sampled questions", len(bfqs))
	}
	for tries := 0; tries < 50*wantDistinct[classUnanswerable] && len(p.byClass[classUnanswerable]) < wantDistinct[classUnanswerable]; tries++ {
		phrasing := unanswerablePhrasings[rng.Intn(len(unanswerablePhrasings))]
		add(fmt.Sprintf(phrasing, entities[rng.Intn(len(entities))]), nil, only(classUnanswerable))
	}

	ordinals := []string{"", "second ", "third ", "fourth ", "fifth "}
	superlatives := []string{"largest", "smallest", "highest", "lowest"}
	listings := []string{"list %s ordered by %s", "name %s sorted by %s", "give me %s by %s"}
	for _, g := range variantGrid {
		for n := 0; n < 2; n++ {
			add(fmt.Sprintf("which %s has the %s%s %s?", g.cat,
				ordinals[rng.Intn(len(ordinals))], superlatives[rng.Intn(len(superlatives))], g.attr), nil, only(classVariant))
		}
		add(fmt.Sprintf(listings[rng.Intn(len(listings))], g.plural, g.attr), nil, only(classVariant))
	}
	for _, cat := range []string{"city", "country"} {
		labels := byCategory["$"+cat]
		for tries := 0; len(labels) >= 2 && tries < 5; tries++ {
			a, b := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
			if a != b {
				add(fmt.Sprintf("which %s has more people, %s or %s?", cat, a, b), nil, only(classVariant))
			}
		}
	}

	for c, idx := range p.byClass {
		if len(idx) < minDistinct[c] {
			return nil, fmt.Errorf("pool: %d distinct %s questions, need at least %d", len(idx), classNames[c], minDistinct[c])
		}
	}
	return p, nil
}

func (p *pool) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d distinct questions:", len(p.qs))
	for c, idx := range p.byClass {
		fmt.Fprintf(&b, " %s %d", classNames[c], len(idx))
	}
	return b.String()
}

// indexes returns every pool question of the classes the mix uses.
func (p *pool) indexes(mix [numClasses]int) []int {
	var out []int
	for c, idx := range p.byClass {
		if mix[c] > 0 {
			out = append(out, idx...)
		}
	}
	return out
}

// subset restricts every class to its first questions (the pool order is
// already a seeded shuffle) so that the classes hold n distinct questions
// in the proportions of mix; what a small class cannot supply goes to BFQs.
func (p *pool) subset(mix [numClasses]int, n int) *pool {
	sub := &pool{qs: p.qs}
	rest := n
	for c := numClasses - 1; c >= 0; c-- {
		want := n * mix[c] / 100
		if class(c) == classBFQ {
			want = rest
		}
		want = min(want, len(p.byClass[c]))
		sub.byClass[c] = p.byClass[c][:want]
		rest -= want
	}
	return sub
}

// own returns, per class, the questions client c of k may ask: those at
// positions c, c+k, ... of the class. Two clients therefore never have the
// same question in flight, the server's singleflight stays idle
// (serve.deduped = 0) and every cache miss costs one engine call.
func (p *pool) own(client, clients int) [numClasses][]int {
	var own [numClasses][]int
	for c, idx := range p.byClass {
		for i := client; i < len(idx); i += clients {
			own[c] = append(own[c], idx[i])
		}
	}
	return own
}

// stream is the sequence of n pool indexes a client asks: the class drawn
// by mix, the question uniformly from the client's own share of the class.
func (p *pool) stream(rng *rand.Rand, mix [numClasses]int, client, clients, n int) []int {
	own := p.own(client, clients)
	total := 0
	for c := range own {
		if len(own[c]) == 0 {
			mix[c] = 0
		}
		total += mix[c]
	}
	out := make([]int, n)
	for i := range out {
		r := rng.Intn(total)
		c := 0
		for r >= mix[c] {
			r -= mix[c]
			c++
		}
		out[i] = own[c][rng.Intn(len(own[c]))]
	}
	return out
}

// once is every question of the client's share that mix asks, each once.
func (p *pool) once(mix [numClasses]int, client, clients int) []int {
	var out []int
	for c, idx := range p.own(client, clients) {
		if mix[c] > 0 {
			out = append(out, idx...)
		}
	}
	return out
}
