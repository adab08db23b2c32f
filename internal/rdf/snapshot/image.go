package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

	"repro/internal/rdf"
	"repro/internal/text"
)

// Image is a read-only knowledge base served directly from a mapped
// snapshot file. It implements rdf.Graph, the online read API, and nothing
// beyond it but Close and Digest, so the engine and shardrpc.Server run on it
// unchanged; the offline phase reads the rdf.Store it was written
// from. An Image is safe for concurrent readers; Close unmaps the file,
// after which no method may be called.
type Image struct {
	data  []byte
	unmap func([]byte) error

	digest     uint64
	numNodes   int
	numPreds   int
	numTriples int

	labelBytes, labelOffs, kinds    []byte
	predBytes, predOffs, predSorted []byte
	entities                        []byte
	keyBytes, keyOffs               []byte
	keyIDs, keyIDOffs               []byte
	subjects                        []byte // u32 subject IDs, ascending
	edgeOffs                        []byte // (nsubj+1) u64, pair units
	edges                           []byte // (u32 pred, u32 obj) pairs
	poKeys                          []byte // (u32 pred, u32 obj) pairs, sorted
	poOffs                          []byte // (nPO+1) u64, ID units
	poSubjs                         []byte // u32 subject IDs
}

func u32at(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }
func u64at(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }

// OpenImage maps the image at path and verifies it completely — header
// checksum, every section checksum and structural consistency — before
// returning. A truncated or bit-flipped image is rejected here, never
// part-served; whether it holds the world the caller expects is the
// caller's comparison of Digest. The verification is one sequential pass
// (which also pages the mapping in), so boot cost is approximately the
// file's read bandwidth, not its parse cost.
func OpenImage(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: open image: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: stat image: %w", err)
	}
	data, unmap, err := mapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("snapshot: map image: %w", err)
	}
	im, err := newImage(data, unmap)
	if err != nil {
		unmap(data)
		return nil, err
	}
	return im, nil
}

// Digest is the identity of the world the image holds, folded off its
// verified section table: equal to Digest of the store it was written from.
func (im *Image) Digest() uint64 { return im.digest }

// newImage decodes, checksums and structurally validates the mapped bytes.
func newImage(data []byte, unmap func([]byte) error) (*Image, error) {
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	// An ID must fit rdf.ID.
	if hdr.numNodes < 0 || hdr.numNodes > math.MaxInt32 || hdr.numPreds < 0 || hdr.numPreds > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot: implausible counts: %d nodes, %d predicates", hdr.numNodes, hdr.numPreds)
	}
	im := &Image{
		data:       data,
		unmap:      unmap,
		digest:     digest(hdr.sections),
		numNodes:   hdr.numNodes,
		numPreds:   hdr.numPreds,
		numTriples: hdr.numTriples,
	}
	fields := im.fields()
	for _, s := range hdr.sections {
		end := s.off + s.len
		if end < s.off || end > uint64(len(data)) {
			return nil, fmt.Errorf("snapshot: section %d out of bounds (file truncated?)", s.kind)
		}
		body := data[s.off:end]
		if crc32.ChecksumIEEE(body) != s.crc {
			return nil, fmt.Errorf("snapshot: section %d checksum mismatch", s.kind)
		}
		if s.kind >= uint32(len(fields)) || fields[s.kind] == nil {
			return nil, fmt.Errorf("snapshot: unknown section kind %d", s.kind)
		}
		if *fields[s.kind] != nil {
			return nil, fmt.Errorf("snapshot: duplicate section %d", s.kind)
		}
		*fields[s.kind] = body
	}
	if err := im.validate(); err != nil {
		return nil, err
	}
	return im, nil
}

// fields maps each section kind to the Image field its body fills.
func (im *Image) fields() [secPOSubjects + 1]*[]byte {
	return [...]*[]byte{
		secLabelBytes: &im.labelBytes,
		secLabelOffs:  &im.labelOffs,
		secKinds:      &im.kinds,
		secPredBytes:  &im.predBytes,
		secPredOffs:   &im.predOffs,
		secPredSorted: &im.predSorted,
		secEntities:   &im.entities,
		secKeyBytes:   &im.keyBytes,
		secKeyOffs:    &im.keyOffs,
		secKeyIDs:     &im.keyIDs,
		secKeyIDOffs:  &im.keyIDOffs,
		secSubjects:   &im.subjects,
		secEdgeOffs:   &im.edgeOffs,
		secEdges:      &im.edges,
		secPOKeys:     &im.poKeys,
		secPOOffs:     &im.poOffs,
		secPOSubjects: &im.poSubjs,
	}
}

// validate cross-checks the sections against the header counts and each
// other: lengths, offset tables, ID ranges, and the orders Objects and
// lookupPairKey binary-search. The CRCs already passed, so this guards
// against a well-sealed but malformed image — one that would otherwise open
// and then panic on its first read.
func (im *Image) validate() error {
	nKeys := len(im.keyOffs)/8 - 1
	var err error
	switch {
	case len(im.kinds) != im.numNodes:
		err = fmt.Errorf("kinds have %d entries, want %d", len(im.kinds), im.numNodes)
	case len(im.predSorted) != im.numPreds*4:
		err = fmt.Errorf("predicate sort index has %d bytes, want %d", len(im.predSorted), im.numPreds*4)
	case len(im.entities)%4 != 0:
		err = fmt.Errorf("ragged entity section")
	case nKeys < 0 || len(im.keyOffs) != len(im.keyIDOffs):
		err = fmt.Errorf("gazetteer offset tables disagree")
	default:
		err = errors.Join(offTable("label", im.labelOffs, im.numNodes, 1, im.labelBytes),
			offTable("predicate", im.predOffs, im.numPreds, 1, im.predBytes),
			offTable("gazetteer key", im.keyOffs, nKeys, 1, im.keyBytes),
			offTable("gazetteer id", im.keyIDOffs, nKeys, 4, im.keyIDs),
			below("predicate sort entry", im.predSorted, im.numPreds),
			below("entity", im.entities, im.numNodes),
			below("gazetteer node", im.keyIDs, im.numNodes))
	}
	if err == nil {
		err = im.validateTriples()
	}
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// validateTriples is validate for the triple sections.
func (im *Image) validateTriples() error {
	if len(im.subjects)%4 != 0 || len(im.poKeys)%8 != 0 {
		return fmt.Errorf("ragged subject or key section")
	}
	if n := len(im.edges) / 8; n != im.numTriples {
		return fmt.Errorf("edges hold %d triples, header claims %d", n, im.numTriples)
	}
	nsubj := len(im.subjects) / 4
	if err := errors.Join(offTable("edge", im.edgeOffs, nsubj, 8, im.edges),
		offTable("pos", im.poOffs, len(im.poKeys)/8, 4, im.poSubjs),
		below("pos subject", im.poSubjs, im.numNodes)); err != nil {
		return err
	}
	prev := -1
	for row := 0; row < nsubj; row++ {
		subj := int(u32at(im.subjects, row))
		if subj <= prev || subj >= im.numNodes {
			return fmt.Errorf("subject %d at row %d is out of order or out of range", subj, row)
		}
		prev = subj
		start, end := im.edgeRange(row)
		var last uint32
		for e := im.edges[start*8 : end*8]; len(e) > 0; e = e[8:] {
			p, o := binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:])
			if p < last || p >= uint32(im.numPreds) || o >= uint32(im.numNodes) {
				return fmt.Errorf("subject %d's edge (%d, %d) is out of order or out of range", subj, p, o)
			}
			last = p
		}
	}
	var lastP, lastO uint32
	for k, key := 0, im.poKeys; len(key) > 0; k, key = k+1, key[8:] {
		p, o := binary.LittleEndian.Uint32(key), binary.LittleEndian.Uint32(key[4:])
		if k > 0 && (p < lastP || p == lastP && o <= lastO) || p >= uint32(im.numPreds) || o >= uint32(im.numNodes) {
			return fmt.Errorf("pos key (%d, %d) is out of order or out of range", p, o)
		}
		lastP, lastO = p, o
	}
	return nil
}

// offTable checks an offset table of n entries into body: n+1 offsets,
// from 0, never decreasing, ending at body's length in units of unit bytes.
func offTable(name string, offs []byte, n int, unit int, body []byte) error {
	if len(offs) != (n+1)*8 {
		return fmt.Errorf("%s offsets have %d bytes, want %d", name, len(offs), (n+1)*8)
	}
	if u64at(offs, 0) != 0 {
		return fmt.Errorf("%s offsets do not start at 0", name)
	}
	var last uint64
	for b := offs; len(b) > 0; b = b[8:] {
		v := binary.LittleEndian.Uint64(b)
		if v < last {
			return fmt.Errorf("%s offsets decrease", name)
		}
		last = v
	}
	if len(body)%unit != 0 || last != uint64(len(body)/unit) {
		return fmt.Errorf("%s body has %d bytes, offsets claim %d units of %d", name, len(body), last, unit)
	}
	return nil
}

// below checks every u32 of b against limit.
func below(name string, b []byte, limit int) error {
	for ; len(b) >= 4; b = b[4:] {
		if v := binary.LittleEndian.Uint32(b); v >= uint32(limit) {
			return fmt.Errorf("%s %d out of range [0,%d)", name, v, limit)
		}
	}
	return nil
}

// Close unmaps the image. No method may be called afterwards.
func (im *Image) Close() error {
	data := im.data
	im.data = nil
	if data == nil {
		return nil
	}
	return im.unmap(data)
}

// --- interning lookups ---

func (im *Image) Label(id rdf.ID) string {
	return string(im.labelBytes[u64at(im.labelOffs, int(id)):u64at(im.labelOffs, int(id)+1)])
}

func (im *Image) KindOf(id rdf.ID) rdf.Kind { return rdf.Kind(im.kinds[id]) }

func (im *Image) NumNodes() int { return im.numNodes }

func (im *Image) key(i int) string {
	return string(im.keyBytes[u64at(im.keyOffs, i):u64at(im.keyOffs, i+1)])
}

// lookupKey binary-searches the sorted gazetteer for a normalized label.
func (im *Image) lookupKey(key string) (int, bool) {
	n := len(im.keyOffs)/8 - 1
	i := sort.Search(n, func(i int) bool { return im.key(i) >= key })
	if i < n && im.key(i) == key {
		return i, true
	}
	return 0, false
}

func (im *Image) NodesByLabel(label string) []rdf.ID {
	i, ok := im.lookupKey(text.Normalize(label))
	if !ok {
		return nil
	}
	start, end := u64at(im.keyIDOffs, i), u64at(im.keyIDOffs, i+1)
	out := make([]rdf.ID, 0, end-start)
	for j := start; j < end; j++ {
		out = append(out, rdf.ID(u32at(im.keyIDs, int(j))))
	}
	return out
}

func (im *Image) Entities() []rdf.ID {
	out := make([]rdf.ID, 0, len(im.entities)/4)
	for i := 0; i < len(im.entities)/4; i++ {
		out = append(out, rdf.ID(u32at(im.entities, i)))
	}
	return out
}

func (im *Image) PredName(p rdf.PID) string {
	return string(im.predBytes[u64at(im.predOffs, int(p)):u64at(im.predOffs, int(p)+1)])
}

func (im *Image) PredID(name string) (rdf.PID, bool) {
	n := im.numPreds
	i := sort.Search(n, func(i int) bool {
		return im.PredName(rdf.PID(u32at(im.predSorted, i))) >= name
	})
	if i < n {
		if p := rdf.PID(u32at(im.predSorted, i)); im.PredName(p) == name {
			return p, true
		}
	}
	return 0, false
}

// --- index access paths ---

// subjectIndex binary-searches the subjects for subj, returning its row.
func (im *Image) subjectIndex(subj rdf.ID) (int, bool) {
	n := len(im.subjects) / 4
	i := sort.Search(n, func(i int) bool { return rdf.ID(u32at(im.subjects, i)) >= subj })
	if i < n && rdf.ID(u32at(im.subjects, i)) == subj {
		return i, true
	}
	return 0, false
}

// edgeRange returns the [start, end) pair range of subject row i.
func (im *Image) edgeRange(i int) (int, int) {
	return int(u64at(im.edgeOffs, i)), int(u64at(im.edgeOffs, i+1))
}

func (im *Image) pair(i int) (rdf.PID, rdf.ID) {
	return rdf.PID(u32at(im.edges, 2*i)), rdf.ID(u32at(im.edges, 2*i+1))
}

func (im *Image) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	row, ok := im.subjectIndex(subj)
	if !ok {
		return nil
	}
	start, end := im.edgeRange(row)
	// Pairs are grouped by ascending predicate; find the group bounds.
	lo := start + sort.Search(end-start, func(i int) bool {
		p, _ := im.pair(start + i)
		return p >= pred
	})
	var out []rdf.ID
	for i := lo; i < end; i++ {
		p, o := im.pair(i)
		if p != pred {
			break
		}
		out = append(out, o)
	}
	return out
}

// lookupPairKey binary-searches a (u32,u32) key table.
func lookupPairKey(keys []byte, a, b uint32) (int, bool) {
	n := len(keys) / 8
	i := sort.Search(n, func(i int) bool {
		ka, kb := u32at(keys, 2*i), u32at(keys, 2*i+1)
		return ka > a || (ka == a && kb >= b)
	})
	if i < n && u32at(keys, 2*i) == a && u32at(keys, 2*i+1) == b {
		return i, true
	}
	return 0, false
}

func (im *Image) NumTriples() int { return im.numTriples }

func (im *Image) Subjects(pred rdf.PID, obj rdf.ID) []rdf.ID {
	k, ok := lookupPairKey(im.poKeys, uint32(pred), uint32(obj))
	if !ok {
		return nil
	}
	start, end := u64at(im.poOffs, k), u64at(im.poOffs, k+1)
	out := make([]rdf.ID, 0, end-start)
	for j := start; j < end; j++ {
		out = append(out, rdf.ID(u32at(im.poSubjs, int(j))))
	}
	return out
}

var _ rdf.Graph = (*Image)(nil)
