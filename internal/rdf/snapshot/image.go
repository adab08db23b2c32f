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
// unchanged; the offline phase reads the rdf.ShardedStore it was written
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
	shards                          []imageShard
}

// imageShard is the resolved per-shard section set.
type imageShard struct {
	subjects []byte // u32 subject IDs, ascending
	edgeOffs []byte // (nsubj+1) u64, pair units
	edges    []byte // (u32 pred, u32 obj) pairs
	poKeys   []byte // (u32 pred, u32 obj) pairs, sorted
	poOffs   []byte // (nPO+1) u64, ID units
	poSubjs  []byte // u32 subject IDs
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
	// Every shard has sections, and an ID must fit rdf.ID.
	if hdr.numShards <= 0 || hdr.numShards > len(hdr.sections) {
		return nil, fmt.Errorf("snapshot: invalid shard count %d", hdr.numShards)
	}
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
		shards:     make([]imageShard, hdr.numShards),
	}
	seen := make(map[[2]uint32]bool, len(hdr.sections))
	for _, s := range hdr.sections {
		end := s.off + s.len
		if end < s.off || end > uint64(len(data)) {
			return nil, fmt.Errorf("snapshot: section %d/%d out of bounds (file truncated?)", s.kind, s.shard)
		}
		body := data[s.off:end]
		if crc32.ChecksumIEEE(body) != s.crc {
			return nil, fmt.Errorf("snapshot: section %d/%d checksum mismatch", s.kind, s.shard)
		}
		k := [2]uint32{s.kind, s.shard}
		if seen[k] {
			return nil, fmt.Errorf("snapshot: duplicate section %d/%d", s.kind, s.shard)
		}
		seen[k] = true
		if err := im.attach(s.kind, s.shard, body); err != nil {
			return nil, err
		}
	}
	if err := im.validate(); err != nil {
		return nil, err
	}
	return im, nil
}

func (im *Image) attach(kind, shard uint32, body []byte) error {
	if kind >= secShardSubj {
		if int(shard) >= len(im.shards) {
			return fmt.Errorf("snapshot: section %d for shard %d of %d", kind, shard, len(im.shards))
		}
		sh := &im.shards[shard]
		switch kind {
		case secShardSubj:
			sh.subjects = body
		case secShardEdgOff:
			sh.edgeOffs = body
		case secShardEdges:
			sh.edges = body
		case secShardPOKeys:
			sh.poKeys = body
		case secShardPOOffs:
			sh.poOffs = body
		case secShardPOSubj:
			sh.poSubjs = body
		default:
			return fmt.Errorf("snapshot: unknown section kind %d", kind)
		}
		return nil
	}
	switch kind {
	case secLabelBytes:
		im.labelBytes = body
	case secLabelOffs:
		im.labelOffs = body
	case secKinds:
		im.kinds = body
	case secPredBytes:
		im.predBytes = body
	case secPredOffs:
		im.predOffs = body
	case secPredSorted:
		im.predSorted = body
	case secEntities:
		im.entities = body
	case secKeyBytes:
		im.keyBytes = body
	case secKeyOffs:
		im.keyOffs = body
	case secKeyIDs:
		im.keyIDs = body
	case secKeyIDOffs:
		im.keyIDOffs = body
	default:
		return fmt.Errorf("snapshot: unknown section kind %d", kind)
	}
	return nil
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
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	total := 0
	for i := range im.shards {
		if err := im.validateShard(i); err != nil {
			return fmt.Errorf("snapshot: shard %d: %w", i, err)
		}
		total += len(im.shards[i].edges) / 8
	}
	if total != im.numTriples {
		return fmt.Errorf("snapshot: shards hold %d triples, header claims %d", total, im.numTriples)
	}
	return nil
}

// validateShard is validate for shard i's sections.
func (im *Image) validateShard(i int) error {
	sh := &im.shards[i]
	if len(sh.subjects)%4 != 0 || len(sh.poKeys)%8 != 0 {
		return fmt.Errorf("ragged subject or key section")
	}
	nsubj := len(sh.subjects) / 4
	if err := errors.Join(offTable("edge", sh.edgeOffs, nsubj, 8, sh.edges),
		offTable("pos", sh.poOffs, len(sh.poKeys)/8, 4, sh.poSubjs),
		below("pos subject", sh.poSubjs, im.numNodes)); err != nil {
		return err
	}
	prev := -1
	for row := 0; row < nsubj; row++ {
		subj := int(u32at(sh.subjects, row))
		if subj <= prev || subj >= im.numNodes || rdf.ShardIndex(rdf.ID(subj), len(im.shards)) != i {
			return fmt.Errorf("subject %d at row %d is out of order, out of range or in the wrong shard", subj, row)
		}
		prev = subj
		start, end := sh.edgeRange(row)
		var last uint32
		for e := sh.edges[start*8 : end*8]; len(e) > 0; e = e[8:] {
			p, o := binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:])
			if p < last || p >= uint32(im.numPreds) || o >= uint32(im.numNodes) {
				return fmt.Errorf("subject %d's edge (%d, %d) is out of order or out of range", subj, p, o)
			}
			last = p
		}
	}
	var lastP, lastO uint32
	for k, key := 0, sh.poKeys; len(key) > 0; k, key = k+1, key[8:] {
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

// shardOf mirrors ShardedStore's placement function exactly.
func (im *Image) shardOf(id rdf.ID) int { return rdf.ShardIndex(id, len(im.shards)) }

// subjectIndex binary-searches shard sh for subj, returning its row.
func (sh *imageShard) subjectIndex(subj rdf.ID) (int, bool) {
	n := len(sh.subjects) / 4
	i := sort.Search(n, func(i int) bool { return rdf.ID(u32at(sh.subjects, i)) >= subj })
	if i < n && rdf.ID(u32at(sh.subjects, i)) == subj {
		return i, true
	}
	return 0, false
}

// edgeRange returns the [start, end) pair range of subject row i.
func (sh *imageShard) edgeRange(i int) (int, int) {
	return int(u64at(sh.edgeOffs, i)), int(u64at(sh.edgeOffs, i+1))
}

func (sh *imageShard) pair(i int) (rdf.PID, rdf.ID) {
	return rdf.PID(u32at(sh.edges, 2*i)), rdf.ID(u32at(sh.edges, 2*i+1))
}

func (im *Image) Objects(subj rdf.ID, pred rdf.PID) []rdf.ID {
	sh := &im.shards[im.shardOf(subj)]
	row, ok := sh.subjectIndex(subj)
	if !ok {
		return nil
	}
	start, end := sh.edgeRange(row)
	// Pairs are grouped by ascending predicate; find the group bounds.
	lo := start + sort.Search(end-start, func(i int) bool {
		p, _ := sh.pair(start + i)
		return p >= pred
	})
	var out []rdf.ID
	for i := lo; i < end; i++ {
		p, o := sh.pair(i)
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

func (im *Image) NumShards() int { return len(im.shards) }

func (im *Image) ShardSubjects(i int, pred rdf.PID, obj rdf.ID) []rdf.ID {
	sh := &im.shards[i]
	k, ok := lookupPairKey(sh.poKeys, uint32(pred), uint32(obj))
	if !ok {
		return nil
	}
	start, end := u64at(sh.poOffs, k), u64at(sh.poOffs, k+1)
	out := make([]rdf.ID, 0, end-start)
	for j := start; j < end; j++ {
		out = append(out, rdf.ID(u32at(sh.poSubjs, int(j))))
	}
	return out
}

var _ rdf.Graph = (*Image)(nil)
