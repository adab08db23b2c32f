// Package kbgen synthesizes the RDF knowledge bases the reproduction runs
// on, standing in for the paper's KBA / Freebase / DBpedia (Sec 7.1).
//
// The generator is deterministic in its seed and reproduces the structural
// properties KBQA's algorithms depend on:
//
//   - plain (s, p, o) facts over a multi-domain schema,
//   - CVT-style mediator structures so that most relational intents require
//     expanded predicates (marriage→person→name and the other four shapes of
//     Table 18),
//   - a probabilistic isA taxonomy with multiple concepts per entity, and
//   - deliberately ambiguous surface forms shared across categories.
package kbgen

import (
	"fmt"
	"math/rand"

	"repro/internal/concept"
	"repro/internal/qclass"
	"repro/internal/rdf"
)

// Config controls knowledge-base synthesis.
type Config struct {
	// Seed drives all randomness; equal seeds give identical KBs.
	Seed int64
	// Flavor selects the KBA / Freebase / DBpedia analogue.
	Flavor Flavor
	// Scale is the base number of entities per category. Zero means
	// DefaultScale. Actual counts are scaled per flavor and per category.
	Scale int
}

// KB bundles a generated knowledge base with the side information the rest
// of the system needs: the taxonomy, the predicate answer classes, the
// name-like predicates ending valid expanded paths, and the intent
// inventory used by the corpus generator and the evaluation gold labels.
type KB struct {
	Flavor     Flavor
	Store      *rdf.Store
	Taxonomy   *concept.Taxonomy
	Intents    []Intent
	PredClass  map[rdf.PID]qclass.Class
	NamePreds  map[rdf.PID]bool
	ByCategory map[string][]rdf.ID
}

// ClassOf returns the manually-labeled answer class of a predicate
// (qclass.Unknown when unlabeled).
func (kb *KB) ClassOf(p rdf.PID) qclass.Class { return kb.PredClass[p] }

// EndFilter reports whether p may end a multi-edge expanded predicate
// (the paper's "must end with name" rule, Sec 6.3, extended with alias).
func (kb *KB) EndFilter(p rdf.PID) bool { return kb.NamePreds[p] }

// SubjectsWithPath returns the entities of the intent's category for which
// V(e, p+) is non-empty, i.e. the entities the intent's questions can be
// asked about.
func (kb *KB) SubjectsWithPath(it Intent) []rdf.ID {
	path, ok := rdf.ParsePath(kb.Store, it.PathKey)
	if !ok {
		return nil
	}
	var out []rdf.ID
	for _, e := range kb.ByCategory[it.Category] {
		if len(rdf.PathObjects(nil, kb.Store, e, path)) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// categoryOrder fixes a deterministic generation order for categories.
var categoryOrder = []string{
	"person", "city", "country", "company", "band", "book", "river",
	"mountain", "university", "film", "game", "organization", "food",
}

// categoryScale is the per-category multiplier on Config.Scale.
var categoryScale = map[string]float64{
	"person": 3, "city": 1, "country": 0.4, "company": 0.5, "band": 0.35,
	"book": 0.5, "river": 0.35, "mountain": 0.35, "university": 0.35,
	"film": 0.5, "game": 0.25, "organization": 0.25, "food": 0.3,
}

// predicate answer classes (the "manual labels" of Sec 4.1.1).
var predClasses = map[string]qclass.Class{
	"population": qclass.Num, "area": qclass.Num, "mayor": qclass.Hum,
	"country": qclass.Loc, "founded": qclass.Num, "dob": qclass.Num,
	"pob": qclass.Loc, "height": qclass.Num, "nationality": qclass.Loc,
	"instrument": qclass.Enty, "marriage": qclass.Enty, "person": qclass.Hum,
	"name": qclass.Hum, "date": qclass.Num, "capital": qclass.Loc,
	"currency": qclass.Enty, "president": qclass.Hum, "ceo": qclass.Hum,
	"headquarter": qclass.Loc, "revenue": qclass.Num, "formed": qclass.Num,
	"genre": qclass.Enty, "group_member": qclass.Enty, "member": qclass.Hum,
	"author": qclass.Hum, "published": qclass.Num, "length": qclass.Num,
	"elevation": qclass.Num, "established": qclass.Num, "students": qclass.Num,
	"released": qclass.Num, "director": qclass.Hum, "developer": qclass.Hum,
	"songs": qclass.Enty, "musical_game_song": qclass.Enty,
	"organization_members": qclass.Enty, "nutrition_fact": qclass.Enty,
	"nutrient": qclass.Enty, "calories": qclass.Num, "books_written": qclass.Enty,
	"alias": qclass.Unknown, "category": qclass.Enty, "location": qclass.Loc,
}

type generator struct {
	cfg   Config
	r     *rand.Rand
	names *nameGen
	kb    *KB
	s     *rdf.Store
	// frequently used predicate ids
	pName, pAlias, pCategory rdf.PID
	medCount                 int
	nutrientNodes            []rdf.ID
}

// DefaultScale is the Scale of the world the servers and kbqa-learn build
// unless told otherwise.
const DefaultScale = 30

// Generate synthesizes a knowledge base.
func Generate(cfg Config) *KB {
	if cfg.Scale <= 0 {
		cfg.Scale = DefaultScale
	}
	r := rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Flavor)*7919))
	s := rdf.NewStore()
	kb := &KB{
		Flavor:     cfg.Flavor,
		Store:      s,
		Taxonomy:   concept.NewTaxonomy(),
		Intents:    Intents(cfg.Flavor),
		PredClass:  make(map[rdf.PID]qclass.Class),
		NamePreds:  make(map[rdf.PID]bool),
		ByCategory: make(map[string][]rdf.ID),
	}
	g := &generator{cfg: cfg, r: r, names: newNameGen(r), kb: kb, s: s}
	g.pName = s.Pred("name")
	g.pAlias = s.Pred("alias")
	g.pCategory = s.Pred("category")
	kb.NamePreds[g.pName] = true
	kb.NamePreds[g.pAlias] = true

	spec := flavorSpecs[cfg.Flavor]
	g.createEntities(spec)
	g.createFacts(spec)
	g.registerContextEvidence()

	// Record predicate classes for every predicate actually created.
	for _, p := range s.Predicates() {
		kb.PredClass[p] = predClasses[s.PredName(p)]
	}
	return kb
}

// createEntities builds the entity pools (with taxonomy entries and
// name/alias/category facts) for every category of the flavor.
func (g *generator) createEntities(spec flavorSpec) {
	for _, cat := range categoryOrder {
		if spec.exclude[cat] {
			continue
		}
		n := int(float64(g.cfg.Scale) * categoryScale[cat] * spec.scaleNum)
		if n < 4 {
			n = 4
		}
		for i := 0; i < n; i++ {
			label := g.names.forCategory(cat)
			g.addEntity(label, cat, i)
		}
	}
	// Inject cross-category ambiguity: one extra entity per category pair
	// sharing the same surface form.
	for _, amb := range ambiguousLabels {
		if spec.exclude[amb.catA] || spec.exclude[amb.catB] {
			continue
		}
		g.addAmbiguousEntity(amb.label, amb.catA)
		g.addAmbiguousEntity(amb.label, amb.catB)
	}
}

func (g *generator) addEntity(label, cat string, ordinal int) rdf.ID {
	e := g.s.NewAmbiguousEntity(label)
	g.registerEntity(e, label, cat, ordinal)
	return e
}

func (g *generator) addAmbiguousEntity(label, cat string) rdf.ID {
	e := g.s.NewAmbiguousEntity(label)
	g.registerEntity(e, label, cat, len(g.kb.ByCategory[cat]))
	return e
}

func (g *generator) registerEntity(e rdf.ID, label, cat string, ordinal int) {
	g.kb.ByCategory[cat] = append(g.kb.ByCategory[cat], e)
	g.s.Add(e, g.pName, g.s.Literal(label))
	g.s.Add(e, g.pCategory, g.s.Literal(cat))
	g.kb.Taxonomy.AddIsA(label, cat, 4)
	for i, c := range extraConcepts[cat] {
		g.kb.Taxonomy.AddIsA(label, c, 2-float64(i)*0.5)
	}
	if cat == "person" {
		persona := personaConcepts[ordinal%len(personaConcepts)]
		g.s.Add(e, g.pCategory, g.s.Literal(persona))
		g.kb.Taxonomy.AddIsA(label, persona, 3)
		g.s.Add(e, g.pAlias, g.s.Literal(aliasOf(label)))
	}
	if cat == "country" {
		g.s.Add(e, g.pAlias, g.s.Literal(aliasOf(label)))
	}
}

// persona returns the persona concept of the i-th person entity, mirroring
// registerEntity's assignment.
func persona(i int) string { return personaConcepts[i%len(personaConcepts)] }

func (g *generator) mediator(kind string) rdf.ID {
	g.medCount++
	return g.s.Mediator(fmt.Sprintf("m:%s:%d", kind, g.medCount))
}

func (g *generator) pickEnt(cat string) rdf.ID {
	pool := g.kb.ByCategory[cat]
	return pool[g.r.Intn(len(pool))]
}

func (g *generator) year() string { return fmt.Sprintf("%d", 1700+g.r.Intn(320)) }

func (g *generator) createFacts(spec flavorSpec) {
	s := g.s
	add := func(e rdf.ID, pred string, obj rdf.ID) { s.Add(e, s.Pred(pred), obj) }
	lit := func(format string, args ...interface{}) rdf.ID {
		return s.Literal(fmt.Sprintf(format, args...))
	}

	// person facts first (other categories reference persons).
	persons := g.kb.ByCategory["person"]
	for i, p := range persons {
		add(p, "dob", lit("%s", g.year()))
		add(p, "pob", g.pickEnt("city"))
		add(p, "height", lit("1.%d m", 40+g.r.Intn(60)))
		if len(g.kb.ByCategory["country"]) > 0 {
			add(p, "nationality", g.pickEnt("country"))
		}
		if persona(i) == "musician" {
			add(p, "instrument", lit("%s", pick(g.r, instruments)))
		}
	}
	// Marriages: pair up ~60% of persons, two mediators per couple so that
	// V(e, marriage→person→name) returns only the spouse (as in Figure 1).
	for i := 0; i+1 < len(persons)*6/10; i += 2 {
		p1, p2 := persons[i], persons[i+1]
		y := g.year()
		m1 := g.mediator("marriage")
		add(p1, "marriage", m1)
		add(m1, "person", p2)
		add(m1, "date", lit("%s", y))
		m2 := g.mediator("marriage")
		add(p2, "marriage", m2)
		add(m2, "person", p1)
		add(m2, "date", lit("%s", y))
	}

	for _, c := range g.kb.ByCategory["city"] {
		add(c, "population", lit("%dk", 10+g.r.Intn(990)))
		add(c, "area", lit("%d sq km", 50+g.r.Intn(4000)))
		add(c, "mayor", persons[g.r.Intn(len(persons))])
		if len(g.kb.ByCategory["country"]) > 0 {
			add(c, "country", g.pickEnt("country"))
		}
		add(c, "founded", lit("%s", g.year()))
	}

	for _, c := range g.kb.ByCategory["country"] {
		add(c, "capital", g.pickEnt("city"))
		add(c, "population", lit("%dm", 1+g.r.Intn(200)))
		add(c, "area", lit("%d sq km", 10000+g.r.Intn(900000)))
		add(c, "currency", lit("%s", pick(g.r, currencies)))
		add(c, "president", persons[g.r.Intn(len(persons))])
	}

	for _, c := range g.kb.ByCategory["company"] {
		add(c, "ceo", persons[g.r.Intn(len(persons))])
		add(c, "headquarter", g.pickEnt("city"))
		add(c, "founded", lit("%s", g.year()))
		add(c, "revenue", lit("%d billion", 1+g.r.Intn(400)))
	}

	// Bands: members are musician-persona persons (who have instrument
	// facts, enabling the Table 15 complex question about instruments).
	var musicians []rdf.ID
	for i, p := range persons {
		if persona(i) == "musician" {
			musicians = append(musicians, p)
		}
	}
	for _, b := range g.kb.ByCategory["band"] {
		add(b, "formed", lit("%s", g.year()))
		add(b, "genre", lit("%s", pick(g.r, genres)))
		nm := 2 + g.r.Intn(3)
		for j := 0; j < nm && len(musicians) > 0; j++ {
			m := g.mediator("group_member")
			add(b, "group_member", m)
			add(m, "member", musicians[g.r.Intn(len(musicians))])
		}
	}

	for _, b := range g.kb.ByCategory["book"] {
		author := persons[g.r.Intn(len(persons))]
		add(b, "author", author)
		add(author, "books_written", b) // inverse, for "what books did X write"
		add(b, "published", lit("%s", g.year()))
	}

	for _, rv := range g.kb.ByCategory["river"] {
		add(rv, "length", lit("%d km", 100+g.r.Intn(6000)))
		if len(g.kb.ByCategory["country"]) > 0 {
			add(rv, "country", g.pickEnt("country"))
		}
	}

	for _, m := range g.kb.ByCategory["mountain"] {
		add(m, "elevation", lit("%d m", 1000+g.r.Intn(8000)))
		if len(g.kb.ByCategory["country"]) > 0 {
			add(m, "country", g.pickEnt("country"))
		}
	}

	for _, u := range g.kb.ByCategory["university"] {
		add(u, "established", lit("%s", g.year()))
		add(u, "students", lit("%d", 1000+g.r.Intn(60000)))
		add(u, "location", g.pickEnt("city"))
	}

	for _, f := range g.kb.ByCategory["film"] {
		add(f, "released", lit("%s", g.year()))
		add(f, "director", persons[g.r.Intn(len(persons))])
	}

	for _, gm := range g.kb.ByCategory["game"] {
		if len(g.kb.ByCategory["company"]) > 0 {
			add(gm, "developer", g.pickEnt("company"))
		}
		add(gm, "released", lit("%s", g.year()))
		ns := 1 + g.r.Intn(3)
		for j := 0; j < ns; j++ {
			song := g.s.NewAmbiguousEntity(g.names.song())
			add(song, "name", g.s.Literal(g.s.Label(song)))
			m := g.mediator("songs")
			add(gm, "songs", m)
			add(m, "musical_game_song", song)
		}
	}

	for _, o := range g.kb.ByCategory["organization"] {
		add(o, "founded", lit("%s", g.year()))
		nm := 2 + g.r.Intn(3)
		for j := 0; j < nm && len(g.kb.ByCategory["country"]) > 0; j++ {
			m := g.mediator("organization_members")
			add(o, "organization_members", m)
			add(m, "member", g.pickEnt("country"))
		}
	}

	if len(g.kb.ByCategory["food"]) > 0 {
		// Nutrient entities are shared across foods.
		for _, n := range nutrients {
			ne := g.s.Entity(n)
			add(ne, "alias", g.s.Literal(aliasOf(n)))
			add(ne, "name", g.s.Literal(n))
			g.nutrientNodes = append(g.nutrientNodes, ne)
		}
		for _, f := range g.kb.ByCategory["food"] {
			add(f, "calories", lit("%d kcal", 20+g.r.Intn(600)))
			nn := 2 + g.r.Intn(3)
			for j := 0; j < nn; j++ {
				m := g.mediator("nutrition_fact")
				add(f, "nutrition_fact", m)
				add(m, "nutrient", g.nutrientNodes[g.r.Intn(len(g.nutrientNodes))])
			}
		}
	}
}

// registerContextEvidence feeds the taxonomy the co-occurrence signal that
// context-aware conceptualization [25] gets from its corpus: the content
// words of an intent's paraphrases are evidence for the intent's subject
// category ("headquarter" → company).
func (g *generator) registerContextEvidence() {
	for _, it := range g.kb.Intents {
		for _, para := range it.Paraphrases {
			for _, w := range paraContentWords(para) {
				g.kb.Taxonomy.AddContextEvidence(it.Category, w, 1)
			}
		}
	}
}

func paraContentWords(para string) []string {
	var out []string
	for _, w := range splitFields(para) {
		if w == "$e" || len(w) <= 2 {
			continue
		}
		switch w {
		case "what", "who", "when", "where", "which", "how", "the", "does",
			"was", "are", "is", "many", "much", "name", "this", "that":
			continue
		}
		out = append(out, w)
	}
	return out
}

func splitFields(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
