// Package snapshot is a binary, offset-based, CRC-framed image of a fully
// built knowledge base (rdf.Store + its interning tables).
// WriteImageFile publishes an image with the same tmp-fsync-rename idiom as
// the answer cache's segment log (safeio.PublishFile); OpenImage
// memory-maps it and serves rdf.Graph, the online read API, directly from
// the mapped bytes — no parsing, no re-interning, no per-triple work — so a
// shard server or frontend boots in roughly the time it takes to check one
// sequential pass over the file. The offline phase reads the store an image
// is written from, never an image, so the image holds only what rdf.Graph
// reads.
//
// The section table is the world's identity: Digest folds each section's
// kind, length and CRC-32 in table order, off a store or off an
// image's verified table, so worlds differing in one triple differ. The
// shardrpc handshake, kbqa's image check and the answer cache's keys all
// compare it. Node and predicate IDs are preserved verbatim from the source
// store: an engine, taxonomy, or model built against the original world
// works unchanged against the image.
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
	"hash/fnv"
)

const (
	// imgMagic opens every image file.
	imgMagic = "KBQAIMG1"
	// imgVersion is the format version; readers reject anything else. 2
	// dropped the header's stored fingerprint and the per-shard S→O
	// sections; 3 dropped the shard split: one set of triple sections,
	// and neither a shard count in the header nor a shard in the table.
	imgVersion = 3
	// maxSections bounds the section table against corrupt headers.
	maxSections = 1 << 20
)

// Section kinds; an image holds each exactly once.
const (
	secLabelBytes = uint32(1)  // node labels, concatenated
	secLabelOffs  = uint32(2)  // (numNodes+1) u64 byte offsets into secLabelBytes
	secKinds      = uint32(3)  // numNodes bytes, rdf.Kind per node
	secPredBytes  = uint32(4)  // predicate names, concatenated
	secPredOffs   = uint32(5)  // (numPreds+1) u64 byte offsets into secPredBytes
	secPredSorted = uint32(6)  // numPreds u32 PIDs ordered by name
	secEntities   = uint32(7)  // u32 entity IDs, ascending
	secKeyBytes   = uint32(8)  // normalized labels (gazetteer keys), sorted, concatenated
	secKeyOffs    = uint32(9)  // (K+1) u64 byte offsets into secKeyBytes
	secKeyIDs     = uint32(10) // u32 node IDs, concatenated per key, ascending within key
	secKeyIDOffs  = uint32(11) // (K+1) u64 offsets into secKeyIDs, in ID units
	secSubjects   = uint32(12) // u32 subject IDs, ascending
	secEdgeOffs   = uint32(13) // (nsubj+1) u64 offsets into secEdges, in pair units
	secEdges      = uint32(14) // (u32 pred, u32 obj) pairs, canonical per-subject order
	secPOKeys     = uint32(15) // (u32 pred, u32 obj) pairs, sorted
	secPOOffs     = uint32(16) // (nPO+1) u64 offsets into secPOSubjects, in ID units
	secPOSubjects = uint32(17) // u32 subject IDs, insertion order per (pred,obj)
)

// header is the decoded fixed-size prefix plus section table.
//
//	magic (8) | u32 version |
//	u64 numNodes | u64 numPreds | u64 numTriples | u32 sectionCount |
//	sectionCount × { u32 kind | u64 off | u64 len | u32 crc } |
//	u32 headerCRC
type header struct {
	numNodes   int
	numPreds   int
	numTriples int
	sections   []sectionEntry
}

type sectionEntry struct {
	kind uint32
	off  uint64
	len  uint64
	crc  uint32
}

const (
	fixedHeaderLen  = 8 + 4 + 8 + 8 + 8 + 4
	sectionCountOff = fixedHeaderLen - 4
	sectionEntryLen = 4 + 8 + 8 + 4
)

func (h *header) encodedLen() int {
	return fixedHeaderLen + len(h.sections)*sectionEntryLen + 4
}

func (h *header) encode() []byte {
	b := make([]byte, 0, h.encodedLen())
	b = append(b, imgMagic...)
	b = binary.LittleEndian.AppendUint32(b, imgVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.numNodes))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.numPreds))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.numTriples))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.sections)))
	for _, s := range h.sections {
		b = binary.LittleEndian.AppendUint32(b, s.kind)
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
	h.numNodes = int(binary.LittleEndian.Uint64(data[12:]))
	h.numPreds = int(binary.LittleEndian.Uint64(data[20:]))
	h.numTriples = int(binary.LittleEndian.Uint64(data[28:]))
	n := int(binary.LittleEndian.Uint32(data[sectionCountOff:]))
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
			kind: binary.LittleEndian.Uint32(p[0:]),
			off:  binary.LittleEndian.Uint64(p[4:]),
			len:  binary.LittleEndian.Uint64(p[12:]),
			crc:  binary.LittleEndian.Uint32(p[20:]),
		}
	}
	return h, nil
}

// digest folds a section table's entries, in order, into the world's
// identity; offsets follow from the lengths.
func digest(table []sectionEntry) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range table {
		binary.LittleEndian.PutUint32(b[0:], s.kind)
		binary.LittleEndian.PutUint64(b[4:], s.len)
		binary.LittleEndian.PutUint32(b[12:], s.crc)
		h.Write(b[:])
	}
	return h.Sum64()
}
