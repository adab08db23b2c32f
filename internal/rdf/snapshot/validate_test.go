package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rdf"
)

// reseal recomputes every section checksum and the header checksum of an
// image in place, so an edit reaches the structural checks instead of
// failing a CRC. Entries whose range falls outside the file are left alone
// (OpenImage rejects them by bounds).
func reseal(img []byte) {
	if len(img) < fixedHeaderLen {
		return
	}
	n := int(binary.LittleEndian.Uint32(img[sectionCountOff:]))
	end := fixedHeaderLen + n*sectionEntryLen
	if n > maxSections || end+4 > len(img) {
		return
	}
	for i := 0; i < n; i++ {
		e := img[fixedHeaderLen+i*sectionEntryLen:]
		off, ln := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off+ln >= off && off+ln <= uint64(len(img)) {
			binary.LittleEndian.PutUint32(e[24:], crc32.ChecksumIEEE(img[off:off+ln]))
		}
	}
	binary.LittleEndian.PutUint32(img[end:], crc32.ChecksumIEEE(img[:end]))
}

// sectionBody returns the body of section kind as a slice of img, so
// writes through it edit the image.
func sectionBody(t testing.TB, img []byte, kind uint32) []byte {
	t.Helper()
	hdr, err := decodeHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range hdr.sections {
		if s.kind == kind {
			return img[s.off : s.off+s.len]
		}
	}
	t.Fatalf("no section %d", kind)
	return nil
}

func putU32(b []byte, i int, v uint32) { binary.LittleEndian.PutUint32(b[i*4:], v) }
func putU64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[i*8:], v) }

// TestOpenImageRejectsMalformedSections edits one section of a valid image
// at a time and reseals the checksums. Every edit leaves each section the
// length the header implies, so only the structural checks can catch it;
// each would otherwise open and then panic or misanswer on a read.
func TestOpenImageRejectsMalformedSections(t *testing.T) {
	ss := testWorld(t)
	orig, err := os.ReadFile(writeTestImage(t, ss))
	if err != nil {
		t.Fatal(err)
	}
	nodes, preds := uint32(ss.NumNodes()), uint32(ss.NumPredicates())
	section := func(img []byte, kind uint32) []byte { return sectionBody(t, img, kind) }
	cases := []struct {
		name string
		edit func(img []byte)
	}{
		{"edge object out of range", func(img []byte) { putU32(section(img, secEdges), 1, 1<<30) }},
		{"edge predicate out of range", func(img []byte) { putU32(section(img, secEdges), 0, preds) }},
		{"label offset past its successor", func(img []byte) {
			putU64(sectionBody(t, img, secLabelOffs), 1, uint64(len(sectionBody(t, img, secLabelBytes))))
		}},
		{"predicate name offsets decrease", func(img []byte) {
			offs := sectionBody(t, img, secPredOffs)
			putU64(offs, 1, binary.LittleEndian.Uint64(offs[2*8:])+1)
		}},
		{"edge offsets decrease", func(img []byte) {
			offs := section(img, secEdgeOffs)
			putU64(offs, 1, binary.LittleEndian.Uint64(offs[len(offs)-8:]))
		}},
		{"edge offset wraps the length check", func(img []byte) {
			offs := section(img, secEdgeOffs)
			last := len(offs)/8 - 1
			putU64(offs, last, binary.LittleEndian.Uint64(offs[last*8:])+1<<61)
		}},
		{"entity out of range", func(img []byte) { putU32(sectionBody(t, img, secEntities), 0, nodes) }},
		{"gazetteer node out of range", func(img []byte) { putU32(sectionBody(t, img, secKeyIDs), 0, nodes+7) }},
		{"predicate sort entry out of range", func(img []byte) { putU32(sectionBody(t, img, secPredSorted), 0, preds) }},
		{"subjects not ascending", func(img []byte) {
			subj := section(img, secSubjects)
			a, b := u32at(subj, 0), u32at(subj, 1)
			putU32(subj, 0, b)
			putU32(subj, 1, a)
		}},
		{"subject out of range", func(img []byte) {
			subj := section(img, secSubjects)
			putU32(subj, len(subj)/4-1, nodes)
		}},
		{"subject's pairs not ascending by predicate", func(img []byte) {
			offs, edges := section(img, secEdgeOffs), section(img, secEdges)
			for row := 0; row < len(offs)/8-1; row++ {
				start := int(binary.LittleEndian.Uint64(offs[row*8:]))
				end := int(binary.LittleEndian.Uint64(offs[(row+1)*8:]))
				if end-start >= 2 && u32at(edges, 2*start) < u32at(edges, 2*(end-1)) {
					first, last := edges[start*8:start*8+8], edges[(end-1)*8:end*8]
					var tmp [8]byte
					copy(tmp[:], first)
					copy(first, last)
					copy(last, tmp[:])
					return
				}
			}
			t.Fatal("no subject with two predicates")
		}},
		{"pos keys not ascending", func(img []byte) {
			keys := section(img, secPOKeys)
			var tmp [8]byte
			copy(tmp[:], keys[:8])
			copy(keys[:8], keys[8:16])
			copy(keys[8:16], tmp[:])
		}},
		{"pos key predicate out of range", func(img []byte) {
			keys := section(img, secPOKeys)
			putU32(keys, len(keys)/4-2, preds)
		}},
		{"pos key object out of range", func(img []byte) {
			keys := section(img, secPOKeys)
			putU32(keys, len(keys)/4-1, nodes)
		}},
		{"pos subject out of range", func(img []byte) { putU32(section(img, secPOSubjects), 0, nodes) }},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := append([]byte(nil), orig...)
			c.edit(img)
			reseal(img)
			path := filepath.Join(dir, "mut.img")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			im, err := OpenImage(path)
			if err == nil {
				im.Close()
				t.Fatal("opened a malformed image")
			}
			t.Log(err)
		})
	}
	// The resealing itself is not what gets an image rejected.
	img := append([]byte(nil), orig...)
	reseal(img)
	path := filepath.Join(dir, "resealed.img")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	openTestImage(t, path)
}

// fuzzWorld is a small world, so one fuzz input can afford every
// seam read: ambiguous labels, a mediator, literals, several objects under
// one predicate and several subjects under one (predicate, object) key.
func fuzzWorld() *rdf.Store {
	s := rdf.NewStore()
	name, spouse, born, in := s.Pred("name"), s.Pred("spouse"), s.Pred("born"), s.Pred("in")
	a, b, c := s.Entity("ada"), s.Entity("bob"), s.NewAmbiguousEntity("ada")
	m, city, year := s.Mediator("m"), s.Entity("paris"), s.Literal("1990")
	for _, e := range []rdf.ID{a, b, c, city} {
		s.Add(e, name, s.Literal(s.Label(e)))
		s.Add(e, in, city)
	}
	s.Add(a, spouse, m)
	s.Add(m, spouse, b)
	s.Add(m, born, year)
	s.Add(b, born, year)
	s.Add(c, born, year)
	return s
}

// FuzzOpenImageResealed writes bytes at an offset of one section of a
// small image — or of its header and section table — reseals the
// checksums, and decodes the result the way OpenImage does. The image must
// be refused, or serve every rdf.Graph method over every node ID and
// predicate without panicking.
func FuzzOpenImageResealed(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteImage(&buf, fuzzWorld()); err != nil {
		f.Fatal(err)
	}
	orig := buf.Bytes()
	hdr, err := decodeHeader(orig)
	if err != nil {
		f.Fatal(err)
	}
	for i := range hdr.sections {
		f.Add(uint16(i), uint32(0), []byte{0xff, 0xff, 0xff, 0x7f})
		f.Add(uint16(i), uint32(4), []byte{1})
		f.Add(uint16(i), uint32(8), make([]byte, 8))
	}
	f.Add(uint16(len(hdr.sections)), uint32(12), []byte{3})
	// Section table edits: each entry's kind renamed to the next kind (a
	// duplicate section; the last one to a kind no image has), and the
	// header's triple count.
	for i := range hdr.sections {
		f.Add(uint16(len(hdr.sections)), uint32(fixedHeaderLen+i*sectionEntryLen), []byte{byte(i + 2)})
	}
	f.Add(uint16(len(hdr.sections)), uint32(sectionCountOff-8), []byte{0})
	f.Fuzz(func(t *testing.T, sec uint16, off uint32, patch []byte) {
		img := append([]byte(nil), orig...)
		region := img[:fixedHeaderLen+len(hdr.sections)*sectionEntryLen]
		if i := int(sec) % (len(hdr.sections) + 1); i < len(hdr.sections) {
			s := hdr.sections[i]
			region = img[s.off : s.off+s.len]
		}
		if len(region) == 0 {
			return
		}
		copy(region[int(off%uint32(len(region))):], patch)
		reseal(img)
		im, err := newImage(img, func([]byte) error { return nil })
		if err != nil {
			return
		}
		// A reader labels what a read returns, so every returned ID is
		// labelled too.
		label := func(ids []rdf.ID) {
			for _, id := range ids {
				im.KindOf(id)
				im.Label(id)
			}
		}
		for id := rdf.ID(0); int(id) < im.NumNodes(); id++ {
			im.KindOf(id)
			label(im.NodesByLabel(im.Label(id)))
		}
		label(im.Entities())
		for p := rdf.PID(0); int(p) < im.numPreds; p++ {
			im.PredID(im.PredName(p))
			for id := rdf.ID(0); int(id) < im.NumNodes(); id++ {
				label(im.Objects(id, p))
				label(rdf.Subjects(im, p, id))
			}
		}
	})
}
