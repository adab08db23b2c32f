package safeio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadFrame feeds the shared frame reader arbitrary bytes — what a
// shard server reads off a socket and what replay reads off a damaged
// segment. It must never panic or over-allocate, must classify every stream
// as frame / clean EOF / typed failure, and any frame it accepts must
// re-encode to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	WriteFrame(&ok, []byte("hello"))
	WriteFrame(&ok, nil)
	f.Add(ok.Bytes())
	f.Add(ok.Bytes()[:ok.Len()-3])                            // torn header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})         // length over the cap
	f.Add([]byte{1, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x'})    // checksum mismatch
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 'a', 'b', 'c', 'd'}) // 64 MiB declared, 4 bytes present
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			before := r.Len()
			payload, err := ReadFrame(r)
			switch {
			case err == nil:
				var again bytes.Buffer
				if werr := WriteFrame(&again, payload); werr != nil {
					t.Fatal(werr)
				}
				consumed := stream[len(stream)-before : len(stream)-r.Len()]
				if !bytes.Equal(again.Bytes(), consumed) {
					t.Fatalf("accepted frame re-encodes to %x, consumed %x", again.Bytes(), consumed)
				}
				continue
			case err == io.EOF:
				if before != 0 {
					t.Fatalf("clean EOF with %d unread bytes", before)
				}
			case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, ErrFrameTooLong), errors.Is(err, ErrFrameChecksum):
			default:
				t.Fatalf("unclassified error from an in-memory reader: %v", err)
			}
			return
		}
	})
}

// TestPublishFileIsAtomic: a failed write leaves the previous file and no
// temp file; a successful one replaces the file whole, and clears a temp
// file a crashed writer left behind.
func TestPublishFileIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	put := func(s string) func(*bufio.Writer) error {
		return func(w *bufio.Writer) error { _, err := w.WriteString(s); return err }
	}
	if err := PublishFile(path, put("one")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := PublishFile(path, func(w *bufio.Writer) error {
		w.WriteString("half of t")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("failed publish changed the file to %q", got)
	}
	if err := os.WriteFile(path+".tmp", []byte("crashed writer's leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(path, put("two")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "two" {
		t.Fatalf("file = %q, want the new content", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file still present after publish (stat err %v)", err)
	}
}
