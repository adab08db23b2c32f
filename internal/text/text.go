// Package text provides the low-level natural-language utilities shared by
// every KBQA component: tokenization, normalization, stopword detection and
// token-span arithmetic.
//
// KBQA operates on questions as token sequences. A "substring" in the paper
// (Sec 5) is always a contiguous token span here, which keeps the
// decomposition dynamic program O(|q|^4) in the number of tokens, exactly as
// analyzed in the paper.
package text

import (
	"strings"
	"unicode"
)

// Tokenize splits s into lower-cased word tokens. Punctuation is dropped
// except that apostrophe-s clitics are split into their own token ("'s"),
// matching how the paper's templates treat possessives
// ("Barack Obama's wife" -> [barack obama 's wife]).
func Tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		case r == '\'' && i+1 < len(runes) && (runes[i+1] == 's' || runes[i+1] == 'S') &&
			(i+2 >= len(runes) || !unicode.IsLetter(runes[i+2])):
			// Possessive clitic: split "'s" into its own token.
			flush()
			toks = append(toks, "'s")
			i++
		case r == '$' || r == '_':
			// Keep placeholder sigils ($city) and identifier underscores.
			cur.WriteRune(r)
		case r == '.' && cur.Len() > 0 && i+1 < len(runes) && unicode.IsDigit(runes[i+1]) && isDigits(cur.String()):
			// Decimal point inside a number (390.5).
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}

func isDigits(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) && r != '.' {
			return false
		}
	}
	return len(s) > 0
}

// Join renders a token slice back into a canonical single-spaced string.
// Tokenize(Join(toks)) == toks for any toks produced by Tokenize.
func Join(toks []string) string {
	return strings.Join(toks, " ")
}

// Normalize is shorthand for Join(Tokenize(s)): the canonical form used as a
// map key for questions, templates and entity names throughout the system.
func Normalize(s string) string {
	return Join(Tokenize(s))
}

// stopwords is the closed class vocabulary treated as non-content tokens by
// keyword matching and by the bootstrapping baseline. Interrogatives are kept
// OUT of this set on purpose: templates need them ("how many people...").
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"at": true, "to": true, "for": true, "by": true, "with": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"been": true, "am": true, "do": true, "does": true, "did": true,
	"it": true, "its": true, "'s": true, "and": true, "or": true,
	"there": true, "that": true, "this": true, "from": true, "as": true,
	"he": true, "she": true, "they": true, "his": true, "her": true,
}

// IsStopword reports whether tok carries no content for keyword matching.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentTokens filters toks down to non-stopword tokens.
func ContentTokens(toks []string) []string {
	var out []string
	for _, t := range toks {
		if !IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}

// Span is a half-open token interval [Start, End) within a token sequence.
type Span struct {
	Start, End int
}

// Len returns the number of tokens covered by the span.
func (sp Span) Len() int { return sp.End - sp.Start }

// Valid reports whether the span is well formed and non-empty within n tokens.
func (sp Span) Valid(n int) bool {
	return 0 <= sp.Start && sp.Start < sp.End && sp.End <= n
}

// Contains reports whether sp fully contains other.
func (sp Span) Contains(other Span) bool {
	return sp.Start <= other.Start && other.End <= sp.End
}

// Overlaps reports whether the two spans share at least one token.
func (sp Span) Overlaps(other Span) bool {
	return sp.Start < other.End && other.Start < sp.End
}

// ReplaceSpan returns a new token slice with the span replaced by repl.
// It panics if the span is invalid for toks, because a bad span indicates a
// programming error upstream, never a data condition.
func ReplaceSpan(toks []string, sp Span, repl string) []string {
	if !sp.Valid(len(toks)) {
		panic("text: ReplaceSpan with invalid span")
	}
	out := make([]string, 0, len(toks)-sp.Len()+1)
	out = append(out, toks[:sp.Start]...)
	out = append(out, repl)
	out = append(out, toks[sp.End:]...)
	return out
}

// CutSpan returns the tokens covered by sp.
func CutSpan(toks []string, sp Span) []string {
	if !sp.Valid(len(toks)) {
		panic("text: CutSpan with invalid span")
	}
	return toks[sp.Start:sp.End]
}

// TitleCase upper-cases the first letter of every token, used when rendering
// entity surface forms into generated natural-language questions.
func TitleCase(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		r := []rune(w)
		r[0] = unicode.ToUpper(r[0])
		words[i] = string(r)
	}
	return strings.Join(words, " ")
}
