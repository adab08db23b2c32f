package snapshot

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kbgen"
	"repro/internal/rdf"
)

// benchWorld is the boot-benchmark subject: a larger world than the unit
// tests use, so per-boot cost is dominated by the load itself rather than
// fixed overheads.
func benchWorld(b *testing.B) *rdf.Store {
	b.Helper()
	kb := kbgen.Generate(kbgen.Config{Seed: 42, Flavor: kbgen.Freebase, Scale: 60})
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

// BenchmarkBootImage measures cold boot from the snapshot image: open,
// map, verify every section CRC and the world digest, first probe, close.
func BenchmarkBootImage(b *testing.B) {
	ss := benchWorld(b)
	path := filepath.Join(b.TempDir(), "world.img")
	if err := WriteImageFile(path, ss); err != nil {
		b.Fatal(err)
	}
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
}
