// Package snapshot is a binary, offset-based, CRC-framed image of a fully
// built sharded knowledge base (rdf.ShardedStore + its interning tables).
// WriteImageFile publishes an image with the same tmp-fsync-rename idiom as
// the answer cache's segment log (internal/serve/persist.go); OpenImage
// memory-maps it and serves the whole rdf.Sharded read API directly from
// the mapped bytes — no parsing, no re-interning, no per-triple work — so a
// shard server or frontend boots in roughly the time it takes to CRC one
// sequential pass over the file.
//
// The header carries the same world fingerprint the shardrpc handshake
// exchanges, so a mismatched image fails fast at open exactly like a
// mismatched world fails at the handshake. Node and predicate IDs are preserved
// verbatim from the source store: an engine, taxonomy, or model built
// against the original world works unchanged against the image.
//
// Unlike the segment log there is no torn-tail recovery: an image is
// all-or-nothing, so a truncated or bit-flipped file is rejected at open
// (every section is CRC-checked before a single triple is served) and the
// previous published image stays in place thanks to the atomic rename.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// imgMagic opens every image file.
	imgMagic = "KBQAIMG1"
	// imgVersion is the format version; readers reject anything else.
	imgVersion = 1
	// maxSections bounds the section table against corrupt headers.
	maxSections = 1 << 20
)

// Section kinds. Global sections use shard = noShard; per-shard sections
// repeat once per shard.
const (
	secLabelBytes  = uint32(1)  // node labels, concatenated
	secLabelOffs   = uint32(2)  // (numNodes+1) u64 byte offsets into secLabelBytes
	secKinds       = uint32(3)  // numNodes bytes, rdf.Kind per node
	secPredBytes   = uint32(4)  // predicate names, concatenated
	secPredOffs    = uint32(5)  // (numPreds+1) u64 byte offsets into secPredBytes
	secPredSorted  = uint32(6)  // numPreds u32 PIDs ordered by name
	secEntities    = uint32(7)  // u32 entity IDs, ascending
	secKeyBytes    = uint32(8)  // normalized labels (gazetteer keys), sorted, concatenated
	secKeyOffs     = uint32(9)  // (K+1) u64 byte offsets into secKeyBytes
	secKeyIDs      = uint32(10) // u32 node IDs, concatenated per key, ascending within key
	secKeyIDOffs   = uint32(11) // (K+1) u64 offsets into secKeyIDs, in ID units
	secShardSubj   = uint32(12) // per shard: u32 subject IDs, ascending
	secShardEdgOff = uint32(13) // per shard: (nsubj+1) u64 offsets into secShardEdges, in pair units
	secShardEdges  = uint32(14) // per shard: (u32 pred, u32 obj) pairs, canonical per-subject order
	secShardSOKeys = uint32(15) // per shard: (u32 subj, u32 obj) pairs, sorted
	secShardSOOffs = uint32(16) // per shard: (nSO+1) u64 offsets into secShardSOPids, in PID units
	secShardSOPids = uint32(17) // per shard: u32 PIDs, insertion order per (subj,obj)
	secShardPOKeys = uint32(18) // per shard: (u32 pred, u32 obj) pairs, sorted
	secShardPOOffs = uint32(19) // per shard: (nPO+1) u64 offsets into secShardPOSubj, in ID units
	secShardPOSubj = uint32(20) // per shard: u32 subject IDs, insertion order per (pred,obj)
)

// noShard marks a global section in the table.
const noShard = ^uint32(0)

// header is the decoded fixed-size prefix plus section table.
//
//	magic (8) | u32 version | u32 numShards | u64 fingerprint |
//	u64 numNodes | u64 numPreds | u64 numTriples | u32 sectionCount |
//	sectionCount × { u32 kind | u32 shard | u64 off | u64 len | u32 crc } |
//	u32 headerCRC
type header struct {
	numShards   int
	fingerprint uint64
	numNodes    int
	numPreds    int
	numTriples  int
	sections    []sectionEntry
}

type sectionEntry struct {
	kind  uint32
	shard uint32
	off   uint64
	len   uint64
	crc   uint32
}

const (
	fixedHeaderLen  = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 4
	sectionEntryLen = 4 + 4 + 8 + 8 + 4
)

func (h *header) encodedLen() int {
	return fixedHeaderLen + len(h.sections)*sectionEntryLen + 4
}

func (h *header) encode() []byte {
	b := make([]byte, 0, h.encodedLen())
	b = append(b, imgMagic...)
	b = binary.LittleEndian.AppendUint32(b, imgVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.numShards))
	b = binary.LittleEndian.AppendUint64(b, h.fingerprint)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.numNodes))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.numPreds))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.numTriples))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.sections)))
	for _, s := range h.sections {
		b = binary.LittleEndian.AppendUint32(b, s.kind)
		b = binary.LittleEndian.AppendUint32(b, s.shard)
		b = binary.LittleEndian.AppendUint64(b, s.off)
		b = binary.LittleEndian.AppendUint64(b, s.len)
		b = binary.LittleEndian.AppendUint32(b, s.crc)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

// decodeHeader parses and CRC-checks the header from the start of data.
func decodeHeader(data []byte) (header, error) {
	var h header
	if len(data) < fixedHeaderLen+4 {
		return h, fmt.Errorf("snapshot: file too short for header (%d bytes)", len(data))
	}
	if string(data[:8]) != imgMagic {
		return h, fmt.Errorf("snapshot: bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != imgVersion {
		return h, fmt.Errorf("snapshot: unsupported image version %d", v)
	}
	h.numShards = int(binary.LittleEndian.Uint32(data[12:]))
	h.fingerprint = binary.LittleEndian.Uint64(data[16:])
	h.numNodes = int(binary.LittleEndian.Uint64(data[24:]))
	h.numPreds = int(binary.LittleEndian.Uint64(data[32:]))
	h.numTriples = int(binary.LittleEndian.Uint64(data[40:]))
	n := int(binary.LittleEndian.Uint32(data[48:]))
	if n < 0 || n > maxSections {
		return h, fmt.Errorf("snapshot: implausible section count %d", n)
	}
	end := fixedHeaderLen + n*sectionEntryLen
	if len(data) < end+4 {
		return h, fmt.Errorf("snapshot: file truncated inside section table")
	}
	want := binary.LittleEndian.Uint32(data[end:])
	if crc32.ChecksumIEEE(data[:end]) != want {
		return h, fmt.Errorf("snapshot: header checksum mismatch")
	}
	h.sections = make([]sectionEntry, n)
	for i := range h.sections {
		p := data[fixedHeaderLen+i*sectionEntryLen:]
		h.sections[i] = sectionEntry{
			kind:  binary.LittleEndian.Uint32(p[0:]),
			shard: binary.LittleEndian.Uint32(p[4:]),
			off:   binary.LittleEndian.Uint64(p[8:]),
			len:   binary.LittleEndian.Uint64(p[16:]),
			crc:   binary.LittleEndian.Uint32(p[24:]),
		}
	}
	return h, nil
}
