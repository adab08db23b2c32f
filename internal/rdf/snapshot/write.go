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
func WriteImage(w io.Writer, src rdf.Sharded) error {
	img := buildSections(src)
	hdr := header{
		numShards:   src.NumShards(),
		fingerprint: rdf.WorldFingerprint(src),
		numNodes:    src.NumNodes(),
		numPreds:    src.NumPredicates(),
		numTriples:  src.NumTriples(),
	}
	off := uint64(fixedHeaderLen + len(img)*sectionEntryLen + 4)
	for _, s := range img {
		hdr.sections = append(hdr.sections, sectionEntry{
			kind:  s.kind,
			shard: s.shard,
			off:   off,
			len:   uint64(len(s.data)),
			crc:   crc32.ChecksumIEEE(s.data),
		})
		off += uint64(len(s.data))
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

// WriteImageFile writes the image to path with the atomic-publish idiom of
// the segment store: readers either see the previous complete image or the
// new one, never a torn mix.
func WriteImageFile(path string, src rdf.Sharded) error {
	err := safeio.PublishFile(path, func(w *bufio.Writer) error { return WriteImage(w, src) })
	if err != nil {
		return fmt.Errorf("snapshot: publish image: %w", err)
	}
	return nil
}

// section is one contiguous region of the image body.
type section struct {
	kind  uint32
	shard uint32
	data  []byte
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// buildSections walks the source through its public read API only, in the
// same deterministic orders the API itself guarantees — so an image taken
// of an image is byte-identical, and every ordering the in-memory store
// promises (insertion-order object lists, insertion-order PredicatesBetween
// and ShardSubjects, ascending scans) is frozen into the file verbatim.
func buildSections(src rdf.Sharded) []section {
	numNodes := src.NumNodes()
	numPreds := src.NumPredicates()

	var out []section
	global := func(kind uint32, data []byte) {
		out = append(out, section{kind: kind, shard: noShard, data: data})
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
	global(secLabelBytes, labelBytes)
	global(secLabelOffs, labelOffs)
	global(secKinds, kinds)

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
	global(secPredBytes, predBytes)
	global(secPredOffs, predOffs)
	global(secPredSorted, predSorted)

	ents := src.Entities()
	entities := make([]byte, 0, len(ents)*4)
	for _, e := range ents {
		entities = appendU32(entities, uint32(e))
	}
	global(secEntities, entities)

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
	global(secKeyBytes, keyBytes)
	global(secKeyOffs, keyOffs)
	global(secKeyIDs, keyIDs)
	global(secKeyIDOffs, keyIDOffs)

	for i := 0; i < src.NumShards(); i++ {
		out = append(out, buildShardSections(src, i)...)
	}
	return out
}

type predObj struct {
	pred rdf.PID
	obj  rdf.ID
}

func buildShardSections(src rdf.Sharded, i int) []section {
	subjects := src.ShardSubjectIDs(i)
	subjSec := make([]byte, 0, len(subjects)*4)
	for _, s := range subjects {
		subjSec = appendU32(subjSec, uint32(s))
	}

	var edges []byte
	edgeOffs := appendU64(make([]byte, 0, (len(subjects)+1)*8), 0)
	nPairs := uint64(0)
	var soKeys, soOffs, soPids []byte
	soOffs = appendU64(soOffs, 0)
	nSOPids := uint64(0)
	poSeen := make(map[predObj]bool)

	objScratch := make([]rdf.ID, 0, 64)
	for _, subj := range subjects {
		objScratch = objScratch[:0]
		src.SubjectTriples(subj, func(t rdf.Triple) {
			edges = appendU32(edges, uint32(t.P))
			edges = appendU32(edges, uint32(t.O))
			nPairs++
			objScratch = append(objScratch, t.O)
			poSeen[predObj{t.P, t.O}] = true
		})
		edgeOffs = appendU64(edgeOffs, nPairs)

		// Distinct objects of this subject, ascending, each carrying its
		// verbatim (insertion-ordered) PredicatesBetween list.
		sort.Slice(objScratch, func(a, b int) bool { return objScratch[a] < objScratch[b] })
		for j, obj := range objScratch {
			if j > 0 && obj == objScratch[j-1] {
				continue
			}
			soKeys = appendU32(soKeys, uint32(subj))
			soKeys = appendU32(soKeys, uint32(obj))
			for _, p := range src.PredicatesBetween(subj, obj) {
				soPids = appendU32(soPids, uint32(p))
				nSOPids++
			}
			soOffs = appendU64(soOffs, nSOPids)
		}
	}

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
		poKeySec = appendU32(poKeySec, uint32(k.pred))
		poKeySec = appendU32(poKeySec, uint32(k.obj))
		for _, s := range src.ShardSubjects(i, k.pred, k.obj) {
			poSubjs = appendU32(poSubjs, uint32(s))
			nPOSubjs++
		}
		poOffs = appendU64(poOffs, nPOSubjs)
	}

	sh := uint32(i)
	return []section{
		{kind: secShardSubj, shard: sh, data: subjSec},
		{kind: secShardEdgOff, shard: sh, data: edgeOffs},
		{kind: secShardEdges, shard: sh, data: edges},
		{kind: secShardSOKeys, shard: sh, data: soKeys},
		{kind: secShardSOOffs, shard: sh, data: soOffs},
		{kind: secShardSOPids, shard: sh, data: soPids},
		{kind: secShardPOKeys, shard: sh, data: poKeySec},
		{kind: secShardPOOffs, shard: sh, data: poOffs},
		{kind: secShardPOSubj, shard: sh, data: poSubjs},
	}
}
