package kbqa

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/text"
)

// BenchmarkReplayVsRecompute prices the persistent answer tier against the
// engine it stands in for. Replay reopens a CacheDir holding N answers and
// asks all N, every one a persisted hit; recompute asks the same N of a
// memory-only Server, every one a miss. Both count the Server's
// construction and Close, and report ns/question = elapsed / (b.N × N).
// It runs on the in-memory store and on a mapped KBImage, at scale 30 and
// (without -short) scale 300.
//
//	go test -run '^$' -bench ReplayVsRecompute ./kbqa
func BenchmarkReplayVsRecompute(b *testing.B) {
	for _, scale := range []int{30, 300} {
		if scale == 300 && testing.Short() {
			continue
		}
		opts := Options{Flavor: "freebase", Scale: scale}
		built, err := Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.KBImage = filepath.Join(b.TempDir(), "world.img")
		if err := built.SaveKBImage(opts.KBImage); err != nil {
			b.Fatal(err)
		}
		mapped, err := Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		// N is every sample question the cache keys apart.
		var qs []string
		seen := map[string]bool{}
		for _, q := range built.SampleQuestions(len(built.TrainingCorpus())) {
			if k := text.Normalize(q); !seen[k] {
				seen[k] = true
				qs = append(qs, q)
			}
		}
		for _, shape := range []struct {
			name string
			sys  *System
		}{{"memory", built}, {"image", mapped}} {
			dir := b.TempDir()
			askAll(b, shape.sys, ServerOptions{CacheDir: dir}, qs)
			name := fmt.Sprintf("scale=%d/%s/N=%d", scale, shape.name, len(qs))
			b.Run(name+"/replay", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if misses := askAll(b, shape.sys, ServerOptions{CacheDir: dir}, qs); misses != 0 {
						b.Fatalf("replay missed %d of %d questions", misses, len(qs))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/question")
			})
			b.Run(name+"/recompute", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if misses := askAll(b, shape.sys, ServerOptions{}, qs); misses != len(qs) {
						b.Fatalf("recompute missed %d of %d questions", misses, len(qs))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/question")
			})
		}
		mapped.Close()
	}
}

// askAll asks every question of a new Server over s, closes it and
// returns its cache misses.
func askAll(b *testing.B, s *System, o ServerOptions, qs []string) int {
	b.Helper()
	sv, err := s.Server(o)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range qs {
		if _, err := sv.Query(ctx, q); err != nil && !IsUnanswerable(err) {
			b.Fatal(err)
		}
	}
	misses := sv.Metrics().CacheMisses
	if err := sv.Close(); err != nil {
		b.Fatal(err)
	}
	return int(misses)
}
