package text

import (
	"math/rand"
	"slices"
	"testing"
)

// TestVocabIDs: IDs are dense from 1 in the order tokens were added, the
// stopwords first, so IsStopID is IsStopword for every token; an unknown
// token is NoWord, which is no stopword; a clone grows on its own.
func TestVocabIDs(t *testing.T) {
	v := NewVocab()
	words := []string{"population", "the", "paris", "'s", "$city"}
	var ids []uint32
	for _, w := range words {
		ids = append(ids, v.Add(w))
	}
	if want := uint32(len(stopwordList)); ids[0] != want+1 || ids[2] != want+2 || ids[4] != want+3 {
		t.Errorf("Add gave %v, want the new words %d, %d, %d", ids, want+1, want+2, want+3)
	}
	if v.Len() != len(stopwordList)+4 {
		t.Errorf("Len = %d, want %d", v.Len(), len(stopwordList)+4)
	}
	for _, w := range append(words, stopwordList...) {
		if id := v.ID(w); id == NoWord || IsStopID(id) != IsStopword(w) {
			t.Errorf("%q: ID %d, IsStopID %v, IsStopword %v", w, id, IsStopID(id), IsStopword(w))
		}
	}
	if v.ID("unseen") != NoWord || IsStopID(NoWord) {
		t.Error("an unknown token is not NoWord, or NoWord is a stopword")
	}
	c := v.Clone()
	if c.Add("unseen") != uint32(v.Len()) || v.ID("unseen") != NoWord || c.ID("paris") != v.ID("paris") {
		t.Error("a clone does not grow on its own")
	}
	got := v.AppendIDs([]uint32{9}, []string{"paris", "unseen", "the"})
	if want := []uint32{9, v.ID("paris"), NoWord, v.ID("the")}; !slices.Equal(got, want) {
		t.Errorf("AppendIDs = %v, want %v", got, want)
	}
}

// TestTrieEqualsMap: a trie filled with random ID sequences — labels in the
// root's table and past it — finds exactly the inserted prefixes, each at
// one node, numbered densely.
func TestTrieEqualsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := []uint32{1, 2, 3, 40, 41, 1000, denseLabels - 1, denseLabels, 1<<31 | 5}
	var tr Trie
	nodes := map[string]uint32{"": 0}
	for range 500 {
		var seq []uint32
		n := uint32(0)
		for range 1 + rng.Intn(5) {
			seq = append(seq, labels[rng.Intn(len(labels))])
			n = tr.Insert(n, seq[len(seq)-1])
			key := string(seqBytes(seq))
			if old, ok := nodes[key]; ok && old != n {
				t.Fatalf("%v: node %d, first inserted at %d", seq, n, old)
			}
			nodes[key] = n
		}
	}
	if tr.Len() != len(nodes) {
		t.Fatalf("Len = %d, want %d distinct prefixes and the root", tr.Len(), len(nodes))
	}
	seen := map[uint32]bool{}
	for key, want := range nodes {
		n, ok := uint32(0), true
		for _, l := range bytesSeq(key) {
			if n, ok = tr.Child(n, l); !ok {
				break
			}
		}
		if !ok || n != want || seen[n] {
			t.Fatalf("%v: Child walk = %d, %v; want %d, once", bytesSeq(key), n, ok, want)
		}
		seen[n] = true
	}
	for _, l := range []uint32{0, 4, denseLabels + 1, 1 << 30} {
		if _, ok := tr.Child(0, l); ok {
			t.Errorf("Child(root, %d) found an edge never inserted", l)
		}
	}
}

func seqBytes(seq []uint32) []byte {
	var b []byte
	for _, l := range seq {
		b = append(b, byte(l>>24), byte(l>>16), byte(l>>8), byte(l))
	}
	return b
}

func bytesSeq(key string) []uint32 {
	var seq []uint32
	for i := 0; i+4 <= len(key); i += 4 {
		seq = append(seq, uint32(key[i])<<24|uint32(key[i+1])<<16|uint32(key[i+2])<<8|uint32(key[i+3]))
	}
	return seq
}
