package snapshot

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// benchWorld is the boot-benchmark subject: a larger world than the unit
// tests use, so per-boot cost is dominated by the load itself rather than
// fixed overheads.
func benchWorld(b *testing.B) *rdf.ShardedStore {
	b.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 60, Shards: 4})
	return kb.Store
}

// firstProbe touches the world the way a just-booted server does — a label
// lookup, a predicate resolution, and one index read — so a lazily-loaded
// implementation cannot claim a boot it hasn't finished.
func firstProbe(b *testing.B, g rdf.Graph) {
	b.Helper()
	ents := g.Entities()
	if len(ents) == 0 {
		b.Fatal("booted world has no entities")
	}
	e := ents[0]
	if len(g.NodesByLabel(g.Label(e))) == 0 {
		b.Fatal("booted world lost a label")
	}
	if _, ok := g.PredID("name"); !ok {
		b.Fatal("booted world lost a predicate")
	}
	g.Objects(e, 0)
}

// bootNTriples is the legacy boot path: parse the N-Triples export and
// re-intern every node.
func bootNTriples(b *testing.B, path string, shards int) *rdf.ShardedStore {
	b.Helper()
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ss, err := rdf.LoadNTriples(bufio.NewReaderSize(f, 1<<20), shards)
	if err != nil {
		b.Fatal(err)
	}
	return ss
}

// BenchmarkBootNTriples measures cold boot from the textual N-Triples
// export: open, parse, intern, first probe. This is the baseline the
// snapshot image exists to beat.
func BenchmarkBootNTriples(b *testing.B) {
	ss := benchWorld(b)
	path := filepath.Join(b.TempDir(), "world.nt")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := rdf.WriteNTriples(ss, bw); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		loaded := bootNTriples(b, path, ss.NumShards())
		firstProbe(b, loaded)
	}
	perBoot := time.Since(t0) / time.Duration(b.N)
	b.ReportMetric(float64(perBoot.Nanoseconds()), "ns/boot")
}

// BenchmarkBootImage measures cold boot from the snapshot image: open,
// map, verify every section CRC and the world fingerprint, first probe,
// close. The one-shot N-Triples baseline is timed in the same process so
// the emitted speedup compares like with like; the image must boot at
// least an order of magnitude faster.
func BenchmarkBootImage(b *testing.B) {
	ss := benchWorld(b)
	path := filepath.Join(b.TempDir(), "world.img")
	if err := WriteImageFile(path, ss); err != nil {
		b.Fatal(err)
	}
	ntPath := filepath.Join(b.TempDir(), "world.nt")
	f, err := os.Create(ntPath)
	if err != nil {
		b.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := rdf.WriteNTriples(ss, bw); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}

	// One-shot baseline, off the benchmark clock: the same boot via the
	// textual export.
	ntStart := time.Now()
	ntLoaded := bootNTriples(b, ntPath, ss.NumShards())
	firstProbe(b, ntLoaded)
	ntBoot := time.Since(ntStart)

	want := Digest(ss)
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		im, err := OpenImage(path)
		if err != nil {
			b.Fatal(err)
		}
		if im.Digest() != want {
			b.Fatal("booted image holds another world")
		}
		firstProbe(b, im)
		im.Close()
	}
	perBoot := time.Since(t0) / time.Duration(b.N)
	b.ReportMetric(float64(perBoot.Nanoseconds()), "ns/boot")
	speedup := float64(ntBoot.Nanoseconds()) / float64(perBoot.Nanoseconds())
	b.ReportMetric(speedup, "speedup_x")
}
