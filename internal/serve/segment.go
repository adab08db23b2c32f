package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"time"

	"repro/internal/safeio"
)

// The segment codec: pure functions between bytes and the records of a
// cache segment file. Every file of the disk log (base, sealed, active) has
// the same layout:
//
//	header  := magic("KBQASEG3")
//	record  := one safeio frame: u32(payloadLen) u32(crc32-IEEE(payload)) payload
//	payload := recEntry i64(atUnixNano) u8(ok) u32(keyLen) key val
//
// All integers little-endian. The CRC covers the payload only; a record
// whose length or checksum doesn't hold terminates that file's valid
// prefix. The key starts with the fingerprint the runtime was handed, so
// it names what computed the answer (LogOptions.ModelTag); the log keeps
// no other record of worlds or models.

const (
	// segMagic heads every segment file; a version bump changes the suffix,
	// so a directory of an older layout replays as empty. 3 dropped the
	// header's meta string: the key's tag names the world.
	segMagic = "KBQASEG3"
	// recEntry is the type byte of a record: one cached answer.
	recEntry = 1
	// maxRecordLen bounds a record's payload: the frame reader refuses
	// anything longer, so the writers refuse to produce it.
	maxRecordLen = safeio.MaxFrameLen
)

// errBadRecord marks a truncated or corrupt record; replay treats it as the
// end of that file's valid prefix and drops everything after it.
var errBadRecord = errors.New("serve: bad segment record")

// Codec serializes answers into entry records. Encode/Decode must
// round-trip: Decode(Encode(a)) observably equals a.
type Codec[A any] interface {
	Encode(a A) ([]byte, error)
	Decode(b []byte) (A, error)
}

// JSONCodec is the default Codec, encoding answers with encoding/json.
type JSONCodec[A any] struct{}

func (JSONCodec[A]) Encode(a A) ([]byte, error) { return json.Marshal(a) }

func (JSONCodec[A]) Decode(b []byte) (A, error) {
	var a A
	err := json.Unmarshal(b, &a)
	return a, err
}

func writeSegHeader(w io.Writer) { io.WriteString(w, segMagic) }

// readSegHeader consumes the header, reporting whether the segment is of
// this layout.
func readSegHeader(r io.Reader) bool {
	magic := make([]byte, len(segMagic))
	_, err := io.ReadFull(r, magic)
	return err == nil && string(magic) == segMagic
}

// readRecord reads one record through the shared frame reader and maps its
// outcomes onto the segment's two: io.EOF is a clean end of segment,
// errBadRecord a torn or corrupt record (drop the tail). A zero-length
// frame is well-formed on the wire but no record — every payload starts
// with its type byte.
func readRecord(r io.Reader) ([]byte, error) {
	payload, err := safeio.ReadFrame(r)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil || len(payload) == 0 {
		return nil, errBadRecord
	}
	return payload, nil
}

// entryFixedLen is the size of an entry payload's fixed-width prefix.
const entryFixedLen = 1 + 8 + 1 + 4

// entryPayloadLen is the size encodeEntryPayload will produce, for callers
// that must refuse an oversized record before building it.
func entryPayloadLen(key string, val []byte) int { return entryFixedLen + len(key) + len(val) }

// encodeEntryPayload renders one cache entry body (value already
// codec-encoded); decodeEntryPayload inverts it.
func encodeEntryPayload(key string, val []byte, atUnixNano int64, ok bool) []byte {
	p := make([]byte, 0, entryPayloadLen(key, val))
	p = append(p, recEntry)
	p = binary.LittleEndian.AppendUint64(p, uint64(atUnixNano))
	if ok {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(key)))
	p = append(p, key...)
	p = append(p, val...)
	return p
}

func decodeEntryPayload(p []byte) (key string, val []byte, at time.Time, ok bool, err error) {
	if len(p) < entryFixedLen || p[0] != recEntry {
		return "", nil, time.Time{}, false, errBadRecord
	}
	at = time.Unix(0, int64(binary.LittleEndian.Uint64(p[1:9])))
	ok = p[9] == 1
	keyLen := binary.LittleEndian.Uint32(p[10:14])
	if uint64(keyLen) > uint64(len(p)-entryFixedLen) {
		return "", nil, time.Time{}, false, errBadRecord
	}
	key = string(p[entryFixedLen : entryFixedLen+int(keyLen)])
	val = p[entryFixedLen+int(keyLen):]
	return key, val, at, ok, nil
}
