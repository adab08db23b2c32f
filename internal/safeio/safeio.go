// Package safeio holds the two integrity idioms the repository's byte
// boundaries share: the CRC frame that delimits every shardrpc message and
// every answer-cache segment record, and the atomic publish that replaces a
// file (cache base segment, KB image) without ever exposing a torn one.
package safeio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
)

// MaxFrameLen bounds a frame's declared payload length, so a corrupt or
// hostile length prefix cannot drive a giant allocation.
const MaxFrameLen = 1 << 26

// Frame errors. A reader that ends mid-frame surfaces as
// io.ErrUnexpectedEOF; any other I/O failure (a net timeout, say) is
// returned as the underlying reader produced it.
var (
	ErrFrameTooLong  = errors.New("safeio: frame length exceeds limit")
	ErrFrameChecksum = errors.New("safeio: frame checksum mismatch")
)

// WriteFrame writes one frame:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// with both integers little-endian. Header and payload go out as one
// vectored write where w has one (a TCP connection: one syscall and one
// segment per frame, not two), and as two plain writes elsewhere.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	frame := net.Buffers{hdr[:], payload}
	_, err := frame.WriteTo(w)
	return err
}

// FrameHeaderLen is the length of the header in front of every payload.
const FrameHeaderLen = 8

// SealFrame writes the header of the payload frame[FrameHeaderLen:] into
// frame's first FrameHeaderLen bytes, so a payload built in place behind
// reserved room goes out as one plain Write of the same bytes WriteFrame
// would send.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
}

// FrameReader reads frames in as many pieces as its reader delivers and
// remembers how far into the header and the payload it got, so a read that
// a deadline cuts short resumes where it stopped on the next call. Apart
// from such an interruption it returns what ReadFrame returns for the same
// bytes. The zero value is ready to use.
type FrameReader struct {
	hdr     [FrameHeaderLen]byte
	n       int    // bytes of the current frame read so far, header included
	payload []byte // allocated once the header is in
}

// Read reads on into the current frame and returns its payload once the
// frame is complete. An error from the reader is returned as it came,
// except that an end mid-frame is io.ErrUnexpectedEOF; after a timeout the
// next Read resumes.
func (f *FrameReader) Read(r io.Reader) ([]byte, error) {
	for {
		piece := f.hdr[min(f.n, FrameHeaderLen):]
		if f.n >= FrameHeaderLen {
			if f.payload == nil {
				n := binary.LittleEndian.Uint32(f.hdr[0:4])
				if n > MaxFrameLen {
					return nil, ErrFrameTooLong
				}
				f.payload = make([]byte, n)
			}
			piece = f.payload[f.n-FrameHeaderLen:]
		}
		if len(piece) == 0 {
			break
		}
		k, err := r.Read(piece)
		f.n += k
		if k < len(piece) && err != nil {
			if err == io.EOF && f.n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	payload := f.payload
	f.n, f.payload = 0, nil
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(f.hdr[4:8]) {
		return nil, ErrFrameChecksum
	}
	return payload, nil
}

// ReadFrame reads one frame, verifying the length bound and the checksum.
// io.EOF means the reader ended cleanly on a frame boundary.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrameLen {
		return nil, ErrFrameTooLong
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a payload
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrFrameChecksum
	}
	return payload, nil
}

// PublishFile replaces path atomically with what write produces: the bytes
// go to path+".tmp", are fsynced, renamed over path, and the directory is
// fsynced, so a reader (or a crash) sees the previous complete file or the
// new one, never a mix. A leftover temp file from a crashed writer is
// overwritten by the next publish.
func PublishFile(path string, write func(w *bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable before the caller acts on it: POSIX
	// does not order a rename against later unlinks across a power cut.
	SyncDir(filepath.Dir(path))
	return nil
}

// SyncDir fsyncs a directory, ordering just-performed renames, creates and
// removes durably before whatever follows; best-effort where directory
// fsync is unsupported.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	//kbqa:nolint errsink — best-effort by contract: not every filesystem supports dir fsync
	d.Sync()
}
