// Package decompose implements complex-question decomposition (Sec 5):
// splitting a question like "when was Barack Obama's wife born?" into a
// sequence of binary factoid questions, by dynamic programming over token
// spans (Algorithm 2) guided by answerability statistics estimated from the
// QA corpus (Eq 26).
package decompose

import "repro/internal/text"

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

// Decomposer runs Algorithm 2. Primitive is the δ oracle: whether the
// token span sp of the (full) question toks is a directly answerable BFQ —
// in the full system, whether the online engine finds an entity and a
// template with a known predicate for it. Receiving the full question
// plus the span (rather than the bare substring) lets the oracle reject
// spans without entity mentions in O(#mentions), which keeps the DP's
// constant factor small.
type Decomposer struct {
	Stats     *Stats
	Primitive func(toks []string, sp text.Span) bool
	// MaxQuestionTokens guards the O(|q|^4) loop for pathological inputs;
	// 0 means unbounded. (|q| < 23 for 99% of questions per Sec 5.3.)
	MaxQuestionTokens int
}

// Decompose returns the maximum-probability valid decomposition of the
// tokenized question, or ok=false when no valid decomposition exists
// (P(A) = 0 for all A). It works on tokens end to end: the caller (the
// online engine) tokenized the question once and hands the DP exactly the
// token window its δ-oracle mentions were located in, and the sequence
// comes back as tokens, so nothing downstream re-tokenizes a joined string.
func (d *Decomposer) Decompose(toks []string) (Decomposition, bool) {
	if max := d.MaxQuestionTokens; max > 0 && len(toks) > max {
		toks = toks[:max]
	}
	n := len(toks)
	if n == 0 {
		return Decomposition{}, false
	}

	type cell struct {
		p     float64
		first text.Span
		seq   [][]string
	}
	// memo[i][j] covers span [i, j). live lists spans with non-zero
	// probability: only those can serve as nested questions, so the inner
	// loop walks the (short) live list instead of all O(|q|^2) sub-spans.
	memo := make([][]cell, n)
	for i := range memo {
		memo[i] = make([]cell, n+1)
	}
	var live []text.Span
	var keyBuf [128]byte

	// Ascending span length guarantees sub-solutions exist (Theorem 2's
	// local optimality).
	for length := 1; length <= n; length++ {
		for i := 0; i+length <= n; i++ {
			j := i + length
			sub := toks[i:j]
			span := text.Span{Start: i, End: j}
			best := cell{}
			if d.Primitive(toks, span) {
				best = cell{p: 1, first: span, seq: [][]string{sub}}
			}
			// Try every live proper inner span as the nested question q_j.
			// The hole is bounded like the counting side: longer holes can
			// never have been counted valid.
			for _, inSp := range live {
				if !span.Contains(inSp) || inSp == span || inSp.Len() > maxHoleTokens {
					continue
				}
				inner := memo[inSp.Start][inSp.End]
				hole := text.Span{Start: inSp.Start - i, End: inSp.End - i}
				pr := d.Stats.prob(patternKey(keyBuf[:0], sub, hole)) * inner.p
				if pr > best.p {
					seq := make([][]string, 0, len(inner.seq)+1)
					seq = append(seq, inner.seq...)
					seq = append(seq, text.ReplaceSpan(sub, hole, Hole))
					best = cell{p: pr, first: inner.first, seq: seq}
				}
			}
			memo[i][j] = best
			if best.p > 0 {
				live = append(live, span)
			}
		}
	}

	full := memo[0][n]
	if full.p == 0 {
		return Decomposition{}, false
	}
	return Decomposition{First: full.first, Sequence: full.seq, P: full.p}, true
}

// Bind substitutes an answer's tokens for the first Hole token of a
// pattern, producing the next concrete question of the sequence; a pattern
// without a hole comes back unchanged.
func Bind(pattern, answer []string) []string {
	for i, t := range pattern {
		if t == Hole {
			out := make([]string, 0, len(pattern)-1+len(answer))
			return append(append(append(out, pattern[:i]...), answer...), pattern[i+1:]...)
		}
	}
	return pattern
}
