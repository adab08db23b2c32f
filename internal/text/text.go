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
	"unicode/utf8"
)

// Tokenize splits s into lower-cased word tokens. Punctuation is dropped
// except that apostrophe-s clitics are split into their own token ("'s"),
// matching how the paper's templates treat possessives
// ("Barack Obama's wife" -> [barack obama 's wife]).
func Tokenize(s string) []string {
	var toks []string
	for start, end, lower := scan(s, 0); end >= 0; start, end, lower = scan(s, end) {
		if toks == nil {
			// Most separators are single spaces; the rest grow the slice.
			toks = make([]string, 0, strings.Count(s[end:], " ")+1)
		}
		toks = append(toks, token(s[start:end], lower))
	}
	return toks
}

// scan finds the first token of s at or after byte offset i, in one pass
// over the bytes: ASCII is classified without decoding. The token is
// s[start:end], lower-cased when lower is set — some rune of it has a
// lower-case form of its own — and as it stands otherwise; end is -1 when no
// token is left. Nothing is allocated.
func scan(s string, i int) (start, end int, lower bool) {
	start = -1
	numeric := true // every rune of the token so far is a digit or '.'
scanning:
	for w := 0; i < len(s); i += w {
		r := rune(s[i])
		if w = 1; r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		word := false
		switch {
		case 'a' <= r && r <= 'z', r == '$', r == '_':
			// Placeholder sigils ($city) and identifier underscores are kept.
			word, numeric = true, false
		case '0' <= r && r <= '9':
			word = true
		case 'A' <= r && r <= 'Z':
			word, numeric, lower = true, false, true
		case r == '.':
			// Decimal point inside a number (390.5).
			word = start >= 0 && numeric && unicode.IsDigit(runeAt(s, i+1))
		case r == '\'' && i+1 < len(s) && (s[i+1] == 's' || s[i+1] == 'S') && !unicode.IsLetter(runeAt(s, i+2)):
			// Possessive clitic: "'s" is a token of its own, so it ends the
			// token before it and is scanned by the next call.
			if start < 0 {
				return i, i + 2, s[i+1] == 'S'
			}
		case unicode.IsDigit(r):
			word = true
		case unicode.IsLetter(r):
			word, numeric = true, false
			lower = lower || unicode.ToLower(r) != r
		}
		switch {
		case word && start < 0:
			start = i
		case !word && start >= 0:
			break scanning
		}
	}
	if start < 0 {
		return -1, -1, false
	}
	return start, i, lower
}

// appendToken appends a token scan found, tok = s[start:end], to dst:
// lower-cased when lower is set, as it stands otherwise.
func appendToken(dst []byte, tok string, lower bool) []byte {
	if !lower {
		return append(dst, tok...)
	}
	for _, r := range tok {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// token returns a token scan found as a string: the substring itself unless
// it has a rune to lower-case, so only such a token is built.
func token(tok string, lower bool) string {
	switch {
	case !lower:
		return tok
	case tok == "'S":
		return "'s"
	}
	var buf [32]byte // off the heap for a token of usual length
	return string(appendToken(buf[:0], tok, true))
}

// runeAt decodes the rune at s[i:]; at the end of s it is utf8.RuneError,
// which is neither a letter nor a digit.
func runeAt(s string, i int) rune {
	r, _ := utf8.DecodeRuneInString(s[i:])
	return r
}

// Join renders a token slice back into a canonical single-spaced string.
// Tokenize(Join(toks)) == toks for any toks produced by Tokenize.
func Join(toks []string) string {
	return strings.Join(toks, " ")
}

// Normalize is Join(Tokenize(s)): the canonical form used as a map key for
// questions, templates and entity names throughout the system. A string
// that is already canonical — its tokens verbatim, one space between them,
// nothing else — comes back as is, without allocating, so a caller holding
// joined tokens or a normalized label pays one scan. Any other string is
// built in the same pass, from the first byte that is not canonical on,
// with one allocation for the result when it fits in 256 bytes.
func Normalize(s string) string {
	for i := 0; i < len(s); {
		start, end, lower := scan(s, i)
		if lower || start != i+min(i, 1) || (i > 0 && s[i] != ' ') {
			// s[:i] is canonical tokens, the key's head as it stands.
			var buf [256]byte // a usual question's key, off the heap
			key := append(buf[:0], s[:i]...)
			for ; end >= 0; start, end, lower = scan(s, end) {
				if len(key) > 0 {
					key = append(key, ' ')
				}
				key = appendToken(key, s[start:end], lower)
			}
			return string(key)
		}
		i = end
	}
	return s
}

// stopwordList is the closed class vocabulary treated as non-content tokens
// by keyword matching and by the bootstrapping baseline, in the order a
// Vocab numbers it. Interrogatives are kept OUT of this set on purpose:
// templates need them ("how many people...").
var stopwordList = []string{
	"a", "an", "the", "of", "in", "on", "at", "to", "for", "by", "with",
	"is", "are", "was", "were", "be", "been", "am", "do", "does", "did",
	"it", "its", "'s", "and", "or", "there", "that", "this", "from", "as",
	"he", "she", "they", "his", "her",
}

// stopVocab is a vocabulary of the stopwords alone.
var stopVocab = NewVocab()

// IsStopword reports whether tok carries no content for keyword matching.
func IsStopword(tok string) bool { return IsStopID(stopVocab.ID(tok)) }

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

// AppendHead appends the tokens before a template's or a pattern's
// placeholder to dst, each followed by its separator; AppendPlaceholder
// completes the text. Writing a span's replacement into a reused buffer
// this way renders Join(ReplaceSpan(toks, sp, "$"+name)) byte for byte
// without building either, so a map keyed by that string can be read with
// m[string(key)], which does not allocate.
func AppendHead(dst []byte, head []string) []byte {
	for _, t := range head {
		dst = append(append(dst, t...), ' ')
	}
	return dst
}

// AppendPlaceholder appends "$"+name and then the tail tokens, each after a
// separator, to the head AppendHead wrote.
func AppendPlaceholder(head []byte, name string, tail []string) []byte {
	key := append(append(head, '$'), name...)
	for _, t := range tail {
		key = append(append(key, ' '), t...)
	}
	return key
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
