// Package template implements the paper's central question representation:
// a template t = t(q, e, c) is the question q with the mention of entity e
// replaced by one of e's concepts c (Sec 2, "Templates").
//
// Templates are stored in canonical string form — lower-cased, single-spaced
// tokens with the concept placeholder spelled "$concept" — so they can serve
// directly as model keys: "how many people are there in $city".
package template

import (
	"strings"

	"repro/internal/concept"
	"repro/internal/text"
)

// Placeholder sigil prepended to concept names in template text.
const sigil = "$"

// Template is a question form with one entity mention conceptualized.
type Template struct {
	// Text is the canonical template string, e.g.
	// "when was $person born".
	Text string
	// Concept is the concept substituted for the mention (without sigil).
	Concept string
}

// Derive builds the template for question tokens qToks with the mention span
// replaced by the concept placeholder.
func Derive(qToks []string, mention text.Span, conceptName string) Template {
	repl := text.ReplaceSpan(qToks, mention, sigil+conceptName)
	return Template{Text: text.Join(repl), Concept: conceptName}
}

// Weighted is a template with its derivation probability P(t|q,e) = P(c|q,e).
type Weighted struct {
	Template
	P float64
}

// DeriveAll derives every template for the question and mention, one per
// concept of the entity surface form, weighted by the context-aware
// conceptualization distribution (Eq 5: P(t|q,e) = P(c|q,e)).
func DeriveAll(tax *concept.Taxonomy, qToks []string, mention text.Span, surface string) []Weighted {
	// Context = the question with the mention removed (read, never kept).
	var buf [24]string
	ctx := append(buf[:0], qToks[:mention.Start]...)
	ctx = append(ctx, qToks[mention.End:]...)
	concepts := tax.Conceptualize(surface, ctx)
	out := make([]Weighted, 0, len(concepts))
	for _, c := range concepts {
		if c.P <= 0 {
			continue
		}
		out = append(out, Weighted{
			Template: Derive(qToks, mention, c.Concept),
			P:        c.P,
		})
	}
	return out
}

// Instantiate substitutes an entity surface form back into a template,
// producing a concrete question string. It is the inverse of Derive and is
// used by the corpus generator and by tests.
func Instantiate(templateText, surface string) string {
	toks := strings.Fields(templateText)
	for i, tok := range toks {
		if strings.HasPrefix(tok, sigil) && len(tok) > 1 {
			toks[i] = text.Normalize(surface)
			break
		}
	}
	return text.Normalize(strings.Join(toks, " "))
}
