package kbgen

import (
	"fmt"
	"strings"

	"repro/internal/qclass"
)

// Intent is one question intent: a knowledge-base predicate (direct or
// expanded, identified by its arrow-notation path key) together with the
// subject category it applies to and the natural-language paraphrase
// patterns users ask it with. The paraphrase inventory is the synthetic
// stand-in for the linguistic variety of the Yahoo! Answers corpus; every
// pattern contains exactly one "$e" placeholder for the subject entity.
type Intent struct {
	PathKey     string // e.g. "population" or "marriage→person→name"
	Category    string // subject category, e.g. "city"
	Class       qclass.Class
	Paraphrases []string
}

// intents is the full intent inventory of the synthetic world. The
// paraphrase sets deliberately include forms with no lexical overlap with
// the predicate name (the paper's motivating case ⓐ "how many people are
// there in $city" for population) as well as keyword-friendly forms (ⓑ).
var intents = []Intent{
	// ---- city ----
	{"population", "city", qclass.Num, []string{
		"how many people are there in $e",
		"what is the population of $e",
		"what is the total number of people in $e",
		"how many people live in $e",
		"how big is the population of $e",
		"how many residents does $e have",
		"what 's the population of $e",
		"how many inhabitants does $e have",
	}},
	{"area", "city", qclass.Num, []string{
		"what is the area of $e",
		"how large is $e",
		"how big is $e",
		"how much space does $e cover",
		"what is the size of $e",
	}},
	{"mayor", "city", qclass.Hum, []string{
		"who is the mayor of $e",
		"who runs $e",
		"who governs $e",
		"what is the name of the mayor of $e",
	}},
	{"country", "city", qclass.Loc, []string{
		"which country is $e in",
		"what country does $e belong to",
		"where is $e located",
		"in which country is $e",
	}},
	{"founded", "city", qclass.Num, []string{
		"when was $e founded",
		"when was $e established",
		"how old is $e",
		"in what year was $e founded",
	}},
	// ---- person ----
	{"dob", "person", qclass.Num, []string{
		"when was $e born",
		"what is the birthday of $e",
		"what year was $e born",
		"what is $e 's date of birth",
		"when is $e 's birthday",
	}},
	{"pob", "person", qclass.Loc, []string{
		"where was $e born",
		"what is the birthplace of $e",
		"in which city was $e born",
		"where is $e from",
	}},
	{"height", "person", qclass.Num, []string{
		"how tall is $e",
		"what is the height of $e",
		"what is $e 's height",
	}},
	{"nationality", "person", qclass.Loc, []string{
		"what is the nationality of $e",
		"which country is $e from",
		"what country is $e a citizen of",
	}},
	{"instrument", "person", qclass.Enty, []string{
		"what instrument does $e play",
		"which instrument is $e known for",
		"what does $e play",
	}},
	{"books_written", "person", qclass.Enty, []string{
		"what books did $e write",
		"what are books written by $e",
		"which books were written by $e",
		"name the books of $e",
	}},
	{"marriage→person→name", "person", qclass.Hum, []string{
		"who is the wife of $e",
		"who is the husband of $e",
		"who is $e married to",
		"who is $e 's wife",
		"who is $e 's husband",
		"what is the name of $e 's spouse",
		"who is the spouse of $e",
		"who is marry to $e",
	}},
	// ---- country ----
	{"capital", "country", qclass.Loc, []string{
		"what is the capital of $e",
		"which city is the capital of $e",
		"what is the capital city of $e",
		"name the capital of $e",
	}},
	{"population", "country", qclass.Num, []string{
		"how many people are there in $e",
		"what is the population of $e",
		"how many people live in $e",
		"how many citizens does $e have",
	}},
	{"area", "country", qclass.Num, []string{
		"what is the area of $e",
		"how large is $e",
		"how big is $e",
	}},
	{"currency", "country", qclass.Enty, []string{
		"what is the currency of $e",
		"what currency is used in $e",
		"what kind of currency does $e have",
	}},
	{"president", "country", qclass.Hum, []string{
		"who is the president of $e",
		"who leads $e",
		"who is the head of state of $e",
	}},
	// ---- company ----
	{"ceo", "company", qclass.Hum, []string{
		"who is the ceo of $e",
		"who runs $e",
		"who is the chief executive of $e",
		"who is in charge of $e",
	}},
	{"headquarter", "company", qclass.Loc, []string{
		"where is the headquarter of $e",
		"in which city is $e based",
		"where is $e located",
		"what is the headquarters city of $e",
	}},
	{"founded", "company", qclass.Num, []string{
		"when was $e founded",
		"what year was $e started",
		"when did $e begin",
	}},
	{"revenue", "company", qclass.Num, []string{
		"what is the revenue of $e",
		"how much money does $e make",
		"how much does $e earn",
	}},
	// ---- band ----
	{"formed", "band", qclass.Num, []string{
		"when was $e formed",
		"when did $e start",
		"what year did $e form",
	}},
	{"genre", "band", qclass.Enty, []string{
		"what genre is $e",
		"what kind of music does $e play",
		"what style of music is $e",
	}},
	{"group_member→member→name", "band", qclass.Hum, []string{
		"who are the members of $e",
		"who is in $e",
		"who plays in $e",
		"name the members of $e",
		"which people are members of $e",
	}},
	// ---- book ----
	{"author", "book", qclass.Hum, []string{
		"who wrote $e",
		"who is the author of $e",
		"who is $e written by",
		"what is the name of the author of $e",
	}},
	{"published", "book", qclass.Num, []string{
		"when was $e published",
		"what year did $e come out",
		"when was $e released",
	}},
	// ---- river ----
	{"length", "river", qclass.Num, []string{
		"how long is $e",
		"what is the length of $e",
		"how many kilometers long is $e",
	}},
	{"country", "river", qclass.Loc, []string{
		"which country does $e flow through",
		"where is $e",
		"in which country is $e",
	}},
	// ---- mountain ----
	{"elevation", "mountain", qclass.Num, []string{
		"how high is $e",
		"how tall is $e",
		"what is the elevation of $e",
		"what is the height of $e",
	}},
	{"country", "mountain", qclass.Loc, []string{
		"in which country is $e",
		"where is $e located",
	}},
	// ---- university ----
	{"established", "university", qclass.Num, []string{
		"when was $e established",
		"when was $e founded",
		"how old is $e",
	}},
	{"students", "university", qclass.Num, []string{
		"how many students does $e have",
		"how many people study at $e",
		"what is the enrollment of $e",
		"what is the number of students at $e",
	}},
	// ---- film ----
	{"released", "film", qclass.Num, []string{
		"when was $e released",
		"what year did $e come out",
		"when did $e premiere",
	}},
	{"director", "film", qclass.Hum, []string{
		"who directed $e",
		"who is the director of $e",
		"who made $e",
	}},
	// ---- game ----
	{"developer", "game", qclass.Enty, []string{
		"who developed $e",
		"which company made $e",
		"who makes $e",
	}},
	{"songs→musical_game_song→name", "game", qclass.Enty, []string{
		"what songs are in $e",
		"which songs does $e feature",
		"name the songs of $e",
	}},
	// ---- organization ----
	{"founded", "organization", qclass.Num, []string{
		"when was $e founded",
		"when was $e created",
	}},
	{"organization_members→member→alias", "organization", qclass.Enty, []string{
		"who are the members of $e",
		"which countries belong to $e",
		"name the members of $e",
	}},
	// ---- food ----
	{"calories", "food", qclass.Num, []string{
		"how many calories are in $e",
		"what is the calorie content of $e",
	}},
	{"nutrition_fact→nutrient→alias", "food", qclass.Enty, []string{
		"what nutrients are in $e",
		"which vitamins does $e contain",
		"what is the nutritional value of $e",
	}},
}

// NounPhrases gives, for intents that can be nested inside a complex
// question (Sec 5), the noun-phrase surface forms that embed them:
// "the capital of $e" inside "how many people live in the capital of $e".
// Keys are "category/pathKey".
var NounPhrases = map[string][]string{
	"country/capital":               {"the capital of $e", "the capital city of $e"},
	"person/marriage→person→name":   {"$e 's wife", "$e 's husband", "the wife of $e", "the spouse of $e"},
	"book/author":                   {"the author of $e", "the writer of $e"},
	"band/group_member→member→name": {"members of $e", "the members of $e"},
	"company/ceo":                   {"the ceo of $e"},
	"company/headquarter":           {"the headquarter of $e", "the headquarters of $e"},
	"city/mayor":                    {"the mayor of $e"},
	"film/director":                 {"the director of $e"},
	"city/country":                  {"the country of $e"},
}

// extraConcepts lists additional (hypernym) concepts per category, with
// prior weights relative to the category concept itself (weight 4). They
// give each entity several concepts, which is what makes template
// derivation ambiguous and the probabilistic treatment of P(t|q,e)
// necessary (Table 6 reports 2.3 templates per entity-question pair).
var extraConcepts = map[string][]string{
	"city":         {"place", "location"},
	"person":       {"celebrity"},
	"country":      {"place", "location"},
	"company":      {"organization"},
	"band":         {"group", "organization"},
	"book":         {"work"},
	"river":        {"place", "location"},
	"mountain":     {"place", "location"},
	"university":   {"organization", "place"},
	"film":         {"work"},
	"game":         {"work"},
	"organization": {"group"},
	"food":         {"product"},
}

// ConceptsForCategory returns every concept an entity of the category may
// carry: the category itself, its hypernyms, and (for persons) the persona
// sub-concepts. The evaluation uses it to enumerate the gold templates of
// an intent.
func ConceptsForCategory(cat string) []string {
	out := []string{cat}
	out = append(out, extraConcepts[cat]...)
	if cat == "person" {
		out = append(out, personaConcepts...)
	}
	return out
}

// personaConcepts are profession sub-concepts assigned to a rotating subset
// of person entities (politician, musician, author, scientist, actor),
// mirroring how Probase gives Barack Obama both $person and $politician.
var personaConcepts = []string{"politician", "musician", "author", "scientist", "actor"}

// Flavor selects which knowledge base to synthesize. The three flavors
// mirror the paper's KBA / Freebase / DBpedia setups: KBA is the largest
// and covers every intent; DBpedia is the smallest and omits the Freebase-
// specific CVT-heavy domains (game, food, organization), which is also why
// the QALD benchmarks — designed for DBpedia — are answered best on it.
type Flavor int

const (
	// KBA is the paper's proprietary billion-scale knowledge base.
	KBA Flavor = iota
	// Freebase is the public Freebase analogue.
	Freebase
	// DBpedia is the public DBpedia analogue.
	DBpedia
)

func (f Flavor) String() string {
	switch f {
	case KBA:
		return "KBA"
	case Freebase:
		return "Freebase"
	case DBpedia:
		return "DBpedia"
	default:
		return "Flavor(?)"
	}
}

// ParseFlavor converts a flavor name (as the binaries' -flavor flags spell
// it) to the flavor; the empty name is Freebase.
func ParseFlavor(name string) (Flavor, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "freebase", "fb":
		return Freebase, nil
	case "kba":
		return KBA, nil
	case "dbpedia", "dbp":
		return DBpedia, nil
	default:
		return 0, fmt.Errorf("unknown flavor %q (want kba, freebase, or dbpedia)", name)
	}
}

// flavorSpec holds per-flavor scale factors and category exclusions.
type flavorSpec struct {
	scaleNum float64
	exclude  map[string]bool
}

var flavorSpecs = map[Flavor]flavorSpec{
	KBA:      {scaleNum: 1.5, exclude: nil},
	Freebase: {scaleNum: 1.0, exclude: nil},
	DBpedia:  {scaleNum: 0.6, exclude: map[string]bool{"game": true, "food": true, "organization": true}},
}

// Intents returns the intent inventory for a flavor (the categories it
// excludes carry no intents there).
func Intents(f Flavor) []Intent {
	spec := flavorSpecs[f]
	var out []Intent
	for _, it := range intents {
		if spec.exclude[it.Category] {
			continue
		}
		out = append(out, it)
	}
	return out
}
