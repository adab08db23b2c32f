package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/rdf"
	"repro/internal/text"
)

// OpenOptions configures the fail-fast checks at open.
type OpenOptions struct {
	// ExpectFingerprint, when nonzero, requires the image's world
	// fingerprint to match exactly — the same check the shardrpc handshake
	// makes, moved to boot time.
	ExpectFingerprint uint64
	// ExpectShards, when nonzero, requires the image's shard count.
	ExpectShards int
}

// Image is a read-only knowledge base served directly from a mapped
// snapshot file. It implements rdf.Sharded — and nothing beyond it — so the
// engine, the parallel expander, and shardrpc.Server run on it unchanged. An Image is safe for
// concurrent readers; Close unmaps the file, after which no method may be
// called.
type Image struct {
	data  []byte
	unmap func([]byte) error

	fingerprint uint64
	numNodes    int
	numPreds    int
	numTriples  int

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
	soKeys   []byte // (u32 subj, u32 obj) pairs, sorted
	soOffs   []byte // (nSO+1) u64, PID units
	soPids   []byte // u32 PIDs
	poKeys   []byte // (u32 pred, u32 obj) pairs, sorted
	poOffs   []byte // (nPO+1) u64, ID units
	poSubjs  []byte // u32 subject IDs
}

func u32at(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }
func u64at(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }

// OpenImage maps the image at path and verifies it completely — header
// checksum, every section checksum, structural consistency, and the world
// fingerprint — before returning. A truncated, bit-flipped, or mismatched
// image is rejected here, never part-served. The verification is one
// sequential pass (which also pages the mapping in), so boot cost is
// approximately the file's read bandwidth, not its parse cost.
func OpenImage(path string, opts OpenOptions) (*Image, error) {
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
	if opts.ExpectShards != 0 && opts.ExpectShards != im.NumShards() {
		unmap(data)
		return nil, fmt.Errorf("snapshot: image has %d shards, want %d", im.NumShards(), opts.ExpectShards)
	}
	if opts.ExpectFingerprint != 0 && opts.ExpectFingerprint != im.fingerprint {
		unmap(data)
		return nil, fmt.Errorf("snapshot: image fingerprint %016x, want %016x (different world)",
			im.fingerprint, opts.ExpectFingerprint)
	}
	return im, nil
}

// newImage decodes, checksums and structurally validates the mapped bytes.
func newImage(data []byte, unmap func([]byte) error) (*Image, error) {
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if hdr.numShards <= 0 {
		return nil, fmt.Errorf("snapshot: invalid shard count %d", hdr.numShards)
	}
	im := &Image{
		data:        data,
		unmap:       unmap,
		fingerprint: hdr.fingerprint,
		numNodes:    hdr.numNodes,
		numPreds:    hdr.numPreds,
		numTriples:  hdr.numTriples,
		shards:      make([]imageShard, hdr.numShards),
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
	// The stored fingerprint must be the fingerprint of the world the
	// sections actually describe — the image is now fully decoded, so
	// recompute it the same way every other consumer does.
	if got := rdf.WorldFingerprint(im); got != im.fingerprint {
		return nil, fmt.Errorf("snapshot: stored fingerprint %016x does not match content %016x",
			im.fingerprint, got)
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
		case secShardSOKeys:
			sh.soKeys = body
		case secShardSOOffs:
			sh.soOffs = body
		case secShardSOPids:
			sh.soPids = body
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

// validate cross-checks section lengths against the header counts; the
// per-section CRCs already passed, so this guards against a header/body
// mismatch, not random corruption.
func (im *Image) validate() error {
	offTable := func(name string, offs []byte, n int, unit int, body []byte) error {
		if len(offs) != (n+1)*8 {
			return fmt.Errorf("snapshot: %s offsets have %d bytes, want %d", name, len(offs), (n+1)*8)
		}
		if u64at(offs, 0) != 0 {
			return fmt.Errorf("snapshot: %s offsets do not start at 0", name)
		}
		if last := u64at(offs, n) * uint64(unit); last != uint64(len(body)) {
			return fmt.Errorf("snapshot: %s body has %d bytes, offsets claim %d", name, len(body), last)
		}
		return nil
	}
	if err := offTable("label", im.labelOffs, im.numNodes, 1, im.labelBytes); err != nil {
		return err
	}
	if len(im.kinds) != im.numNodes {
		return fmt.Errorf("snapshot: kinds have %d entries, want %d", len(im.kinds), im.numNodes)
	}
	if err := offTable("predicate", im.predOffs, im.numPreds, 1, im.predBytes); err != nil {
		return err
	}
	if len(im.predSorted) != im.numPreds*4 {
		return fmt.Errorf("snapshot: predicate sort index has %d bytes, want %d", len(im.predSorted), im.numPreds*4)
	}
	if len(im.entities)%4 != 0 {
		return fmt.Errorf("snapshot: ragged entity section")
	}
	nKeys := len(im.keyOffs)/8 - 1
	if nKeys < 0 || len(im.keyOffs) != len(im.keyIDOffs) {
		return fmt.Errorf("snapshot: gazetteer offset tables disagree")
	}
	if err := offTable("gazetteer key", im.keyOffs, nKeys, 1, im.keyBytes); err != nil {
		return err
	}
	if err := offTable("gazetteer id", im.keyIDOffs, nKeys, 4, im.keyIDs); err != nil {
		return err
	}
	total := 0
	for i := range im.shards {
		sh := &im.shards[i]
		if len(sh.subjects)%4 != 0 {
			return fmt.Errorf("snapshot: shard %d ragged subject section", i)
		}
		nsubj := len(sh.subjects) / 4
		if err := offTable(fmt.Sprintf("shard %d edge", i), sh.edgeOffs, nsubj, 8, sh.edges); err != nil {
			return err
		}
		if len(sh.soKeys)%8 != 0 || len(sh.poKeys)%8 != 0 {
			return fmt.Errorf("snapshot: shard %d ragged key section", i)
		}
		if err := offTable(fmt.Sprintf("shard %d so", i), sh.soOffs, len(sh.soKeys)/8, 4, sh.soPids); err != nil {
			return err
		}
		if err := offTable(fmt.Sprintf("shard %d pos", i), sh.poOffs, len(sh.poKeys)/8, 4, sh.poSubjs); err != nil {
			return err
		}
		total += len(sh.edges) / 8
	}
	if total != im.numTriples {
		return fmt.Errorf("snapshot: shards hold %d triples, header claims %d", total, im.numTriples)
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

func (im *Image) EntitiesByLabel(label string) []rdf.ID {
	var out []rdf.ID
	for _, id := range im.NodesByLabel(label) {
		if im.KindOf(id) == rdf.KindEntity {
			out = append(out, id)
		}
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

func (im *Image) NumPredicates() int { return im.numPreds }

func (im *Image) Predicates() []rdf.PID {
	out := make([]rdf.PID, im.numPreds)
	for i := range out {
		out[i] = rdf.PID(i)
	}
	return out
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

func (im *Image) Subjects(pred rdf.PID, obj rdf.ID) []rdf.ID {
	var out []rdf.ID
	for i := range im.shards {
		out = append(out, im.ShardSubjects(i, pred, obj)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (im *Image) PredicatesBetween(subj, obj rdf.ID) []rdf.PID {
	sh := &im.shards[im.shardOf(subj)]
	i, ok := lookupPairKey(sh.soKeys, uint32(subj), uint32(obj))
	if !ok {
		return nil
	}
	start, end := u64at(sh.soOffs, i), u64at(sh.soOffs, i+1)
	out := make([]rdf.PID, 0, end-start)
	for j := start; j < end; j++ {
		out = append(out, rdf.PID(u32at(sh.soPids, int(j))))
	}
	return out
}

func (im *Image) OutEdges(subj rdf.ID, fn func(p rdf.PID, o rdf.ID)) {
	sh := &im.shards[im.shardOf(subj)]
	row, ok := sh.subjectIndex(subj)
	if !ok {
		return
	}
	start, end := sh.edgeRange(row)
	for i := start; i < end; i++ {
		fn(sh.pair(i))
	}
}

func (im *Image) NumTriples() int { return im.numTriples }

// Triples iterates in the canonical global order (ascending subject,
// sorted predicate, insertion-order objects) by walking all node IDs with
// one cursor per shard — O(numNodes + numTriples), no sorting.
func (im *Image) Triples(fn func(rdf.Triple)) {
	cur := make([]int, len(im.shards))
	for id := 0; id < im.numNodes; id++ {
		s := im.shardOf(rdf.ID(id))
		sh := &im.shards[s]
		if cur[s] < len(sh.subjects)/4 && rdf.ID(u32at(sh.subjects, cur[s])) == rdf.ID(id) {
			im.emitSubject(sh, cur[s], fn)
			cur[s]++
		}
	}
}

func (im *Image) emitSubject(sh *imageShard, row int, fn func(rdf.Triple)) {
	subj := rdf.ID(u32at(sh.subjects, row))
	start, end := sh.edgeRange(row)
	for i := start; i < end; i++ {
		p, o := sh.pair(i)
		fn(rdf.Triple{S: subj, P: p, O: o})
	}
}

// --- sharded extensions ---

func (im *Image) NumShards() int { return len(im.shards) }

func (im *Image) ShardTriples(i int, fn func(rdf.Triple)) {
	sh := &im.shards[i]
	for row := 0; row < len(sh.subjects)/4; row++ {
		im.emitSubject(sh, row, fn)
	}
}

func (im *Image) ShardSubjectIDs(i int) []rdf.ID {
	sh := &im.shards[i]
	out := make([]rdf.ID, len(sh.subjects)/4)
	for j := range out {
		out[j] = rdf.ID(u32at(sh.subjects, j))
	}
	return out
}

func (im *Image) SubjectTriples(subj rdf.ID, fn func(rdf.Triple)) {
	sh := &im.shards[im.shardOf(subj)]
	if row, ok := sh.subjectIndex(subj); ok {
		im.emitSubject(sh, row, fn)
	}
}

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

var _ rdf.Sharded = (*Image)(nil)
