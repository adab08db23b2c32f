package text

import "maps"

// NoWord is the ID of every token no compiled structure was built from. No
// trie has an edge for it and every table indexed by ID leaves its entry
// empty, so it matches nothing.
const NoWord uint32 = 0

// Vocab gives the tokens that compiled structures are built from dense IDs,
// from 1 up: the stopwords first, in stopwordList's order, then whatever
// the caller adds. A question is mapped to IDs once, and everything that
// reads it afterwards indexes by ID instead of hashing the token again. A
// Vocab is filled while the structures over it compile and read-only
// afterwards, so lookups are safe from any goroutine.
type Vocab struct {
	ids map[string]uint32
}

// NewVocab returns a vocabulary holding the stopwords.
func NewVocab() *Vocab {
	v := &Vocab{ids: make(map[string]uint32, len(stopwordList))}
	for _, w := range stopwordList {
		v.Add(w)
	}
	return v
}

// Add returns tok's ID, giving it the next one if it has none.
func (v *Vocab) Add(tok string) uint32 {
	id, ok := v.ids[tok]
	if !ok {
		id = uint32(len(v.ids)) + 1
		v.ids[tok] = id
	}
	return id
}

// ID returns tok's ID, NoWord when it has none.
func (v *Vocab) ID(tok string) uint32 { return v.ids[tok] }

// Len is one more than the largest ID: the length of a table indexed by ID.
func (v *Vocab) Len() int { return len(v.ids) + 1 }

// Clone returns a copy that can grow without changing v; every ID of v
// means the same token in it.
func (v *Vocab) Clone() *Vocab { return &Vocab{ids: maps.Clone(v.ids)} }

// AppendIDs appends the ID of every token of toks to dst.
func (v *Vocab) AppendIDs(dst []uint32, toks []string) []uint32 {
	for _, t := range toks {
		dst = append(dst, v.ids[t])
	}
	return dst
}

// Tokenize is Tokenize that also looks every token up, in the same pass,
// appending the tokens to toks and their IDs to ids: the i-th token appended
// has the i-th ID appended. A caller that hands in storage it reuses pays
// only for the tokens that had a rune to lower-case.
func (v *Vocab) Tokenize(s string, toks []string, ids []uint32) ([]string, []uint32) {
	for start, end, lower := scan(s, 0); end >= 0; start, end, lower = scan(s, end) {
		tok := token(s[start:end], lower)
		toks = append(toks, tok)
		ids = append(ids, v.ids[tok])
	}
	return toks, ids
}

// IsStopID reports whether id is a stopword's. Every vocabulary gives the
// stopwords its first IDs, so the test is one comparison.
func IsStopID(id uint32) bool { return id-1 < uint32(len(stopwordList)) }

// Trie is a trie over ID sequences. Node 0 is the root. Its edges are a
// table by label, as most lookups start there and stop after one step;
// every other edge is one entry of a single map keyed by (node, label), so
// a step costs one integer hash and the trie is one map however many nodes
// it has. Callers keep what a node carries in tables indexed by node.
type Trie struct {
	root  []uint32 // by label below denseLabels: the child, 0 for none
	edges map[uint64]uint32
	nodes uint32 // the nodes besides the root
}

// denseLabels bounds the labels of the root's table; a root edge with a
// larger label (an engine's placeholder edge) is in the map.
const denseLabels = 1 << 24

// Child returns the node under node by label.
func (t *Trie) Child(node, label uint32) (uint32, bool) {
	if node == 0 && label < denseLabels {
		if label < uint32(len(t.root)) && t.root[label] != 0 {
			return t.root[label], true
		}
		return 0, false
	}
	c, ok := t.edges[uint64(node)<<32|uint64(label)]
	return c, ok
}

// Insert returns the node under node by label, adding it if it is absent.
func (t *Trie) Insert(node, label uint32) uint32 {
	if c, ok := t.Child(node, label); ok {
		return c
	}
	t.nodes++
	if node == 0 && label < denseLabels {
		if int(label) >= len(t.root) {
			t.root = append(t.root, make([]uint32, int(label)+1-len(t.root))...)
		}
		t.root[label] = t.nodes
		return t.nodes
	}
	if t.edges == nil {
		t.edges = make(map[uint64]uint32)
	}
	t.edges[uint64(node)<<32|uint64(label)] = t.nodes
	return t.nodes
}

// Len is the number of nodes, the root included: the length of a table
// indexed by node.
func (t *Trie) Len() int { return int(t.nodes) + 1 }
