package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/rdf"
	"repro/internal/safeio"
	"repro/internal/text"
)

// WriteImage serializes src as a snapshot image. Node and predicate IDs
// are written verbatim, so everything keyed by them (taxonomy node sets,
// engine probes, shardrpc wire IDs) means the same thing against the
// image. The source must be fully loaded and must not be written to while
// the image is being taken.
func WriteImage(w io.Writer, src *rdf.Store) error {
	img := buildSections(src)
	hdr := header{
		numNodes:   src.NumNodes(),
		numPreds:   src.NumPredicates(),
		numTriples: src.NumTriples(),
		sections:   table(img),
	}
	if _, err := w.Write(hdr.encode()); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	for _, s := range img {
		if _, err := w.Write(s.data); err != nil {
			return fmt.Errorf("snapshot: write section %d: %w", s.kind, err)
		}
	}
	return nil
}

// Digest is the identity of the world src holds: the digest of the section
// table WriteImage would write for it, so it equals the Digest of the
// image written from src. It builds the sections to checksum them — one
// pass over the store, run once per boot.
func Digest(src *rdf.Store) uint64 { return digest(table(buildSections(src))) }

// table lays img out behind the header: one entry per section, at the
// offset WriteImage writes it to.
func table(img []section) []sectionEntry {
	out := make([]sectionEntry, len(img))
	off := uint64(fixedHeaderLen + len(img)*sectionEntryLen + 4)
	for i, s := range img {
		out[i] = sectionEntry{kind: s.kind, off: off, len: uint64(len(s.data)), crc: crc32.ChecksumIEEE(s.data)}
		off += out[i].len
	}
	return out
}

// WriteImageFile writes the image to path with the atomic-publish idiom of
// the segment store: readers either see the previous complete image or the
// new one, never a torn mix.
func WriteImageFile(path string, src *rdf.Store) error {
	err := safeio.PublishFile(path, func(w *bufio.Writer) error { return WriteImage(w, src) })
	if err != nil {
		return fmt.Errorf("snapshot: publish image: %w", err)
	}
	return nil
}

// section is one contiguous region of the image body.
type section struct {
	kind uint32
	data []byte
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// buildSections walks the store through its exported methods, in the
// deterministic orders they guarantee, so every ordering the in-memory
// store promises (insertion-order object and subject lists, ascending
// scans) is frozen into the file verbatim.
func buildSections(src *rdf.Store) []section {
	numNodes := src.NumNodes()
	numPreds := src.NumPredicates()

	var out []section
	add := func(kind uint32, data []byte) {
		out = append(out, section{kind: kind, data: data})
	}

	// Node labels + kinds.
	labelBytes := make([]byte, 0, numNodes*8)
	labelOffs := appendU64(make([]byte, 0, (numNodes+1)*8), 0)
	kinds := make([]byte, numNodes)
	for id := 0; id < numNodes; id++ {
		labelBytes = append(labelBytes, src.Label(rdf.ID(id))...)
		labelOffs = appendU64(labelOffs, uint64(len(labelBytes)))
		kinds[id] = byte(src.KindOf(rdf.ID(id)))
	}
	add(secLabelBytes, labelBytes)
	add(secLabelOffs, labelOffs)
	add(secKinds, kinds)

	// Predicate names + the by-name lookup order.
	predBytes := make([]byte, 0, numPreds*8)
	predOffs := appendU64(make([]byte, 0, (numPreds+1)*8), 0)
	for p := 0; p < numPreds; p++ {
		predBytes = append(predBytes, src.PredName(rdf.PID(p))...)
		predOffs = appendU64(predOffs, uint64(len(predBytes)))
	}
	bySorted := make([]int, numPreds)
	for i := range bySorted {
		bySorted[i] = i
	}
	sort.Slice(bySorted, func(a, b int) bool {
		return src.PredName(rdf.PID(bySorted[a])) < src.PredName(rdf.PID(bySorted[b]))
	})
	predSorted := make([]byte, 0, numPreds*4)
	for _, p := range bySorted {
		predSorted = appendU32(predSorted, uint32(p))
	}
	add(secPredBytes, predBytes)
	add(secPredOffs, predOffs)
	add(secPredSorted, predSorted)

	ents := src.Entities()
	entities := make([]byte, 0, len(ents)*4)
	for _, e := range ents {
		entities = appendU32(entities, uint32(e))
	}
	add(secEntities, entities)

	// The label gazetteer, reconstructed exactly: walking IDs in ascending
	// order reproduces each key's node list in creation order, and the
	// empty normalized key is skipped just as the interner skips it.
	byKey := make(map[string][]rdf.ID)
	for id := 0; id < numNodes; id++ {
		key := text.Normalize(src.Label(rdf.ID(id)))
		if key != "" {
			byKey[key] = append(byKey[key], rdf.ID(id))
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var keyBytes, keyIDs []byte
	keyOffs := appendU64(nil, 0)
	keyIDOffs := appendU64(nil, 0)
	nIDs := uint64(0)
	for _, k := range keys {
		keyBytes = append(keyBytes, k...)
		keyOffs = appendU64(keyOffs, uint64(len(keyBytes)))
		for _, id := range byKey[k] {
			keyIDs = appendU32(keyIDs, uint32(id))
			nIDs++
		}
		keyIDOffs = appendU64(keyIDOffs, nIDs)
	}
	add(secKeyBytes, keyBytes)
	add(secKeyOffs, keyOffs)
	add(secKeyIDs, keyIDs)
	add(secKeyIDOffs, keyIDOffs)

	// The triples: one pass over the node IDs lists each subject with its
	// out-edges and collects the (predicate, object) keys of the reverse
	// index.
	var subjects, edges []byte
	edgeOffs := appendU64(nil, 0)
	nPairs := uint64(0)
	poSeen := make(map[predObj]bool)
	for id := 0; id < numNodes; id++ {
		before := nPairs
		src.SubjectTriples(rdf.ID(id), func(t rdf.Triple) {
			edges = appendU32(appendU32(edges, uint32(t.P)), uint32(t.O))
			nPairs++
			poSeen[predObj{t.P, t.O}] = true
		})
		if nPairs > before {
			subjects = appendU32(subjects, uint32(id))
			edgeOffs = appendU64(edgeOffs, nPairs)
		}
	}
	add(secSubjects, subjects)
	add(secEdgeOffs, edgeOffs)
	add(secEdges, edges)

	poKeys := make([]predObj, 0, len(poSeen))
	for k := range poSeen {
		poKeys = append(poKeys, k)
	}
	sort.Slice(poKeys, func(a, b int) bool {
		if poKeys[a].pred != poKeys[b].pred {
			return poKeys[a].pred < poKeys[b].pred
		}
		return poKeys[a].obj < poKeys[b].obj
	})
	var poKeySec, poSubjs []byte
	poOffs := appendU64(nil, 0)
	nPOSubjs := uint64(0)
	for _, k := range poKeys {
		poKeySec = appendU32(appendU32(poKeySec, uint32(k.pred)), uint32(k.obj))
		for _, s := range src.Subjects(k.pred, k.obj) {
			poSubjs = appendU32(poSubjs, uint32(s))
			nPOSubjs++
		}
		poOffs = appendU64(poOffs, nPOSubjs)
	}
	add(secPOKeys, poKeySec)
	add(secPOOffs, poOffs)
	add(secPOSubjects, poSubjs)
	return out
}

type predObj struct {
	pred rdf.PID
	obj  rdf.ID
}
