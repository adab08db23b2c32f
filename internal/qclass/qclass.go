// Package qclass implements question classification over the UIUC coarse
// taxonomy [20], used by KBQA to refine entity–value extraction (Sec 4.1.1):
// a candidate value is kept only when its category (the expected answer type
// of the value's predicate) agrees with the category of the question.
//
// The paper uses the feature-based classifier of Metzler & Croft [22]; this
// reproduction uses the interrogative-pattern rules that drive the bulk of
// that classifier's accuracy, which is sufficient because the classifier is
// only consumed as a boolean agreement filter.
package qclass

// Class is a coarse UIUC question class.
type Class uint8

// The six coarse UIUC classes plus Unknown.
const (
	Unknown Class = iota
	Abbr          // abbreviations and expansions
	Desc          // descriptions, definitions, reasons
	Enty          // entities: things, names of non-humans
	Hum           // humans: people, groups
	Loc           // locations
	Num           // numeric values: counts, dates, sizes, money
)

var classNames = [...]string{"UNKNOWN", "ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "Class(?)"
}

// ClassifyTokens assigns a UIUC coarse class to a tokenized question. It
// never fails; a question with no recognizable interrogative pattern maps to
// Enty, the taxonomy's catch-all, matching the behaviour of [22] on tail
// questions.
func ClassifyTokens(toks []string) Class {
	if len(toks) == 0 {
		return Unknown
	}
	has := func(w string) bool {
		for _, t := range toks {
			if t == w {
				return true
			}
		}
		return false
	}
	first := toks[0]
	second := ""
	if len(toks) > 1 {
		second = toks[1]
	}

	switch first {
	case "who", "whom", "whose":
		return Hum
	case "where":
		return Loc
	case "when":
		return Num
	case "why":
		return Desc
	case "how":
		switch second {
		case "many", "much", "long", "tall", "old", "far", "big", "large", "high", "heavy", "deep", "wide":
			return Num
		case "do", "does", "did", "can", "could", "should", "would", "to":
			return Desc
		}
		return Desc
	case "what", "which", "name", "list", "give", "tell", "in", "on":
		// Fall through to head-noun rules below.
	case "is", "are", "was", "were", "does", "do", "did", "can":
		// Yes/no question; treated as description.
		return Desc
	}

	// Abbreviation patterns.
	if has("stand") && has("abbreviation") || has("abbreviation") || (has("stand") && has("for")) {
		return Abbr
	}
	// "what is the meaning/definition of" -> DESC.
	for _, w := range []string{"mean", "meaning", "definition", "define"} {
		if has(w) {
			return Desc
		}
	}
	// Head-noun cues for WHAT/WHICH questions.
	numHeads := map[string]bool{
		"population": true, "number": true, "count": true, "area": true,
		"size": true, "height": true, "length": true, "depth": true,
		"width": true, "elevation": true, "gdp": true, "year": true,
		"date": true, "birthday": true, "age": true, "temperature": true,
		"money": true, "cost": true, "price": true, "percentage": true,
		"total": true, "amount": true, "enrollment": true, "calorie": true,
		"calories": true, "revenue": true, "salary": true,
	}
	humHeads := map[string]bool{
		"wife": true, "husband": true, "spouse": true, "mother": true,
		"father": true, "author": true, "ceo": true, "president": true,
		"mayor": true, "founder": true, "leader": true, "director": true,
		"member": true, "members": true, "person": true, "people": true,
		"actor": true, "singer": true, "king": true, "queen": true,
	}
	locHeads := map[string]bool{
		"city": true, "country": true, "capital": true, "place": true,
		"location": true, "state": true, "continent": true, "river": true,
		"mountain": true, "lake": true, "headquarter": true, "headquarters": true,
		"hometown": true, "birthplace": true,
	}
	for _, tok := range toks {
		switch {
		case numHeads[tok]:
			return Num
		case humHeads[tok]:
			return Hum
		case locHeads[tok]:
			return Loc
		}
	}
	if first == "what" || first == "which" || first == "name" || first == "list" {
		return Enty
	}
	return Enty
}

// Agrees reports whether an answer of class v is compatible with a question
// of class q. Unknown agrees with everything (no evidence to filter on), and
// Enty — the catch-all — is compatible with Hum and Loc answers as well,
// because UIUC's ENTY subsumes named things.
func Agrees(q, v Class) bool {
	if q == Unknown || v == Unknown {
		return true
	}
	if q == v {
		return true
	}
	if q == Enty && (v == Hum || v == Loc) {
		return true
	}
	return false
}
