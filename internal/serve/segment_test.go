package serve

// The two fuzz targets of the segment codec: the record round trip, and
// the replay of a log cut into base / sealed / active files.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/safeio"
)

// FuzzSegmentRoundTrip fuzzes the segment codec: every entry must encode →
// frame → unframe → decode to exactly itself, and no truncation or
// corruption of the framed bytes may ever panic the reader.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add("00ea9ecf86a99481;k=3;v=true\x1fwhat is the p of e?", []byte(`"answer"`), int64(123456789), true)
	f.Add("", []byte{}, int64(-1), false)
	f.Add("fp\x1fk", []byte{0xff, 0x00}, int64(1<<62), true)
	f.Fuzz(func(t *testing.T, key string, val []byte, at int64, ok bool) {
		payload := encodeEntryPayload(key, val, at, ok)

		key2, val2, at2, ok2, err := decodeEntryPayload(payload)
		if err != nil {
			t.Fatalf("decode of a fresh encode failed: %v", err)
		}
		if key2 != key || !bytes.Equal(val2, val) || at2.UnixNano() != at || ok2 != ok {
			t.Fatalf("round trip mismatch: (%q,%x,%d,%v) != (%q,%x,%d,%v)",
				key2, val2, at2.UnixNano(), ok2, key, val, at, ok)
		}

		// Framed: write, read back, decode again.
		var buf bytes.Buffer
		if err := safeio.WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		framed := buf.Bytes()
		got, err := readRecord(bytes.NewReader(framed))
		if err != nil {
			t.Fatalf("readRecord of a fresh writeRecord failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("framing corrupted the payload")
		}

		// Any truncation must fail cleanly, never panic.
		for cut := 0; cut < len(framed); cut++ {
			if p, err := readRecord(bytes.NewReader(framed[:cut])); err == nil {
				t.Fatalf("truncated record at %d/%d decoded: %x", cut, len(framed), p)
			}
		}
		// Arbitrary decode input must fail cleanly too.
		if len(payload) > 0 {
			decodeEntryPayload(payload[:len(payload)-1])
			mutated := append([]byte{}, payload...)
			mutated[len(mutated)/2] ^= 0x5a
			decodeEntryPayload(mutated)
		}
	})
}

// FuzzMultiSegmentReplay fuzzes the rotation replay order: an arbitrary
// write log is split at arbitrary points into base / sealed a / sealed b /
// active segments — two sealed files with a gap in their sequence numbers,
// the backlog an older writer could leave — with a model swap optionally
// falling inside the sealed range, and replay under the model live at the
// end must reconstruct exactly the sequential last-write-wins state of that
// model's keys, wherever the cuts fall.
func FuzzMultiSegmentReplay(f *testing.F) {
	f.Add([]byte("abcdefgh"), uint8(2), uint8(5), uint8(7), uint8(0))
	f.Add([]byte("swap"), uint8(0), uint8(1), uint8(4), uint8(2))
	f.Add([]byte{0xff, 0x00, 0x7f, 0x01, 0x01, 0x01}, uint8(6), uint8(1), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, cutA, cutB, cutC, swap uint8) {
		if len(data) > 48 {
			data = data[:48]
		}
		// Three cuts split the log into base | sealed a | sealed b | active.
		cuts := []int{int(cutA) % (len(data) + 1), int(cutB) % (len(data) + 1), int(cutC) % (len(data) + 1)}
		sort.Ints(cuts)
		i, k := cuts[0], cuts[2]
		// swap 0 keeps model m0 throughout; otherwise entries from index g of
		// the sealed range on are m1's answers, and the restart runs m1.
		g, live := len(data), "m0"
		if swap > 0 {
			g, live = i+int(swap-1)%(k-i+1), "m1"
		}
		at := time.Unix(3000, 0)
		segs := make([][][]byte, 4)
		want := make(map[string]string)
		for n, c := range data {
			tag := "m0"
			if n >= g {
				tag = "m1"
			}
			key := cacheKey(tag, fmt.Sprintf("k%d", c%8))
			val := fmt.Sprintf("v%d-%d", n, c)
			seg := 0
			for _, cut := range cuts {
				if n >= cut {
					seg++
				}
			}
			segs[seg] = append(segs[seg], rawEntry(t, key, val, at))
			if tag == live {
				want[key] = val
			}
		}
		dir := t.TempDir()
		writeRawSegment(t, filepath.Join(dir, baseName), segs[0])
		writeRawSegment(t, filepath.Join(dir, sealedName(3)), segs[1])
		writeRawSegment(t, filepath.Join(dir, sealedName(7)), segs[2])
		writeRawSegment(t, filepath.Join(dir, segName), segs[3])

		s := openTestLog(t, dir, testLog{ModelTag: live})
		defer s.Close()
		if n := s.Len(); n != len(want) {
			t.Fatalf("Len = %d, want %d", n, len(want))
		}
		for k, v := range want {
			if e, hit := s.Get(k); !hit || e.Val != v {
				t.Fatalf("Get(%q) = (%q, %v), want %q", k, e.Val, hit, v)
			}
		}
	})
}
