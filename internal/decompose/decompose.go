// Package decompose implements complex-question decomposition (Sec 5):
// splitting a question like "when was Barack Obama's wife born?" into a
// sequence of binary factoid questions, by dynamic programming over token
// spans (Algorithm 2) guided by answerability statistics estimated from the
// QA corpus (Eq 26).
package decompose

import (
	"slices"

	"repro/internal/text"
)

// Hole is the entity-variable placeholder used in question patterns.
const Hole = "$" + holeName

const holeName = "e"

// Stats holds the corpus pattern statistics of Sec 5.2: for a question
// pattern q̌ (a question with one substring replaced by $e), fo counts the
// corpus questions matching the pattern and fv counts those whose replaced
// substring is a valid entity mention. P(q̌) = fv/fo punishes
// over-generalized patterns ("when $e?").
type Stats struct {
	fo map[string]int
	fv map[string]int
}

// maxHoleTokens bounds the replaced-substring length during counting;
// entity mentions never exceed it, and longer holes would only inflate fo
// for patterns that can never be valid.
const maxHoleTokens = 8

// BuildStats scans the corpus questions once, enumerating every token span
// of every question and counting pattern occurrences. isEntitySpan reports
// whether the span is a valid entity mention of its question (in practice a
// knowledge-base gazetteer check).
func BuildStats(questions []string, isEntitySpan func(toks []string, sp text.Span) bool) *Stats {
	s := &Stats{fo: make(map[string]int), fv: make(map[string]int)}
	var key []byte
	for _, q := range questions {
		toks := text.Tokenize(q)
		for i := 0; i < len(toks); i++ {
			for j := i + 1; j <= len(toks) && j-i <= maxHoleTokens; j++ {
				sp := text.Span{Start: i, End: j}
				if sp.Len() == len(toks) {
					continue // replacing everything is not a pattern
				}
				key = patternKey(key[:0], toks, sp)
				pat := string(key) // Join(ReplaceSpan(toks, sp, Hole))
				s.fo[pat]++
				if isEntitySpan(toks, sp) {
					s.fv[pat]++
				}
			}
		}
	}
	return s
}

// prob returns P(q̌) = fv(q̌)/fo(q̌) (Eq 26) for a pattern written by
// patternKey, without allocating; 0 when the pattern never occurs.
func (s *Stats) prob(key []byte) float64 {
	fo := s.fo[string(key)]
	if fo == 0 {
		return 0
	}
	return float64(s.fv[string(key)]) / float64(fo)
}

// Fingerprint is a deterministic content hash of the statistics: equal
// (pattern, fo, fv) sets hash equal whatever the map order or the order of
// the corpus questions. Each pattern is hashed on its own (FNV-1a over the
// pattern and its two counts, then a splitmix64 finalizer so the sum mixes)
// and the per-pattern hashes are summed.
func (s *Stats) Fingerprint() uint64 {
	var sum uint64
	for pat, fo := range s.fo {
		h := uint64(14695981039346656037)
		for i := 0; i < len(pat); i++ {
			h = (h ^ uint64(pat[i])) * 1099511628211
		}
		h = (h ^ uint64(fo)) * 1099511628211
		h = (h ^ uint64(s.fv[pat])) * 1099511628211
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		sum += h ^ h>>31
	}
	return sum
}

// patternKey appends the pattern q̌ — toks with the span hole replaced by
// Hole — to dst, as text.AppendHead describes.
func patternKey(dst []byte, toks []string, hole text.Span) []byte {
	return text.AppendPlaceholder(text.AppendHead(dst, toks[:hole.Start]), holeName, toks[hole.End:])
}

// Decomposition is a valid question sequence A = (q̌_0, ..., q̌_k), each
// element a token sequence: the first is a concrete primitive BFQ — the
// tokens of span First of the decomposed question, the span the δ oracle
// accepted — and each later element contains the Hole token to be bound to
// the previous answer (Sec 5.1).
type Decomposition struct {
	First    text.Span
	Sequence [][]string
	P        float64
}

// IsComplex reports whether the decomposition has more than one step.
func (d Decomposition) IsComplex() bool { return len(d.Sequence) > 1 }

// Decomposer runs Algorithm 2. Its DP is one flat table of cells, one per
// span, each holding the span's best probability and backpointers — the span
// of its concrete first question and the inner span whose answer fills its
// hole — rather than a sequence; the sequence is built once, from the whole
// question's cell. The table, the sequence and its patterns' tokens are
// storage the Decomposer keeps between calls, so one reused question after
// question allocates nothing once it has grown. It is not safe for
// concurrent use.
type Decomposer struct {
	Stats *Stats
	// MaxQuestionTokens guards the O(|q|^4) loop for pathological inputs;
	// 0 means unbounded. (|q| < 23 for 99% of questions per Sec 5.3.)
	MaxQuestionTokens int

	memo []cell // memo[i*(n+1)+j] covers span [i, j) of an n-token question
	live []text.Span
	seq  [][]string
	toks []string // the tokens of seq's patterns
}

// cell is the best decomposition the DP found for one span: its probability,
// the span of its first, concrete question, and the inner span whose answer
// binds the span's hole — empty when the span is that first question itself.
type cell struct {
	p     float64
	first text.Span
	inner text.Span
}

// dpBefore reports whether span a comes before span b in the DP's order:
// ascending length, then ascending start.
func dpBefore(a, b text.Span) bool {
	return a.Len() < b.Len() || (a.Len() == b.Len() && a.Start < b.Start)
}

// Decompose returns the maximum-probability valid decomposition of the
// tokenized question, or ok=false when no valid decomposition exists
// (P(A) = 0 for all A). It works on tokens end to end: the caller (the
// online engine) tokenized the question once and hands the DP exactly the
// token window its δ-oracle mentions were located in, and the sequence
// comes back as tokens — the first element a window of toks, the patterns
// the Decomposer's own storage, valid until its next call — so nothing
// downstream re-tokenizes a joined string.
//
// primitive is the δ oracle's verdict, settled before the DP runs: the spans
// of toks that are directly answerable BFQs, in the DP's order (by length,
// then by start); every other span is not one. In the full system a span is
// primitive when the online engine finds an entity and a template with a
// known predicate for it.
func (d *Decomposer) Decompose(toks []string, primitive []text.Span) (Decomposition, bool) {
	if max := d.MaxQuestionTokens; max > 0 && len(toks) > max {
		toks = toks[:max]
	}
	n := len(toks)
	if n == 0 {
		return Decomposition{}, false
	}
	at := func(sp text.Span) *cell { return &d.memo[sp.Start*(n+1)+sp.End] }
	if size := n * (n + 1); len(d.memo) < size {
		d.memo = make([]cell, size)
	}
	// live lists spans with non-zero probability: only those can serve as
	// nested questions, so the inner loop walks the (short) live list
	// instead of all O(|q|^2) sub-spans.
	d.live = d.live[:0]
	var keyBuf [128]byte

	// Ascending span length guarantees sub-solutions exist (Theorem 2's
	// local optimality).
	for length := 1; length <= n; length++ {
		for i := 0; i+length <= n; i++ {
			j := i + length
			sub := toks[i:j]
			span := text.Span{Start: i, End: j}
			best := cell{}
			for len(primitive) > 0 && dpBefore(primitive[0], span) {
				primitive = primitive[1:]
			}
			if len(primitive) > 0 && primitive[0] == span {
				best = cell{p: 1, first: span}
			}
			// Try every live proper inner span as the nested question q_j.
			// The hole is bounded like the counting side: longer holes can
			// never have been counted valid.
			for _, inSp := range d.live {
				if !span.Contains(inSp) || inSp == span || inSp.Len() > maxHoleTokens {
					continue
				}
				inner := at(inSp)
				hole := text.Span{Start: inSp.Start - i, End: inSp.End - i}
				if pr := d.Stats.prob(patternKey(keyBuf[:0], sub, hole)) * inner.p; pr > best.p {
					best = cell{p: pr, first: inner.first, inner: inSp}
				}
			}
			*at(span) = best
			if best.p > 0 {
				d.live = append(d.live, span)
			}
		}
	}

	whole := text.Span{End: n}
	full := *at(whole)
	if full.p == 0 {
		return Decomposition{}, false
	}
	// Follow the backpointers inward from the whole question, sizing the
	// sequence and its patterns, then fill both from the outside in.
	steps, size := 1, 0
	for sp := whole; at(sp).inner.Len() > 0; sp = at(sp).inner {
		steps++
		size += sp.Len() - at(sp).inner.Len() + 1
	}
	d.seq = slices.Grow(d.seq[:0], steps)[:steps]
	d.toks = slices.Grow(d.toks[:0], size)
	sp := whole
	for k := steps - 1; k > 0; k-- {
		inner := at(sp).inner
		start := len(d.toks)
		d.toks = append(append(append(d.toks, toks[sp.Start:inner.Start]...), Hole), toks[inner.End:sp.End]...)
		d.seq[k] = d.toks[start:len(d.toks):len(d.toks)]
		sp = inner
	}
	d.seq[0] = toks[sp.Start:sp.End:sp.End]
	return Decomposition{First: full.first, Sequence: d.seq, P: full.p}, true
}

// Bind appends the next concrete question of the sequence to dst — the
// pattern with an answer's tokens substituted for its first Hole token — and
// returns the extended slice; a pattern without a hole is appended as it is.
func Bind(dst, pattern, answer []string) []string {
	for i, t := range pattern {
		if t == Hole {
			return append(append(append(dst, pattern[:i]...), answer...), pattern[i+1:]...)
		}
	}
	return append(dst, pattern...)
}
