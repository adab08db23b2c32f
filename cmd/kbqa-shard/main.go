// Command kbqa-shard is the knowledge-base shard server of the
// distributed serving topology: it loads the (deterministically
// generated) world, owns a subset of its subject-hash shards, and answers
// shardrpc index reads — probe frontiers and reverse subject lookups — for
// kbqa-server frontends.
//
// Every shard server loads the full world; ownership is the routing
// contract with the placement, not a storage split, so replicas need no
// data movement and a frontend with the same -servers list computes the
// same placement. Start N of these and point kbqa-server's
// -shard-servers at them:
//
//	kbqa-shard -addr :9101 -servers :9101,:9102 -replicas 2
//	kbqa-shard -addr :9102 -servers :9101,:9102 -replicas 2
//	kbqa-server -shard-servers :9101,:9102 -shard-replicas 2
//
// Generating the world from scratch dominates boot time. -kb-save writes
// the loaded world as a snapshot image after generation; -kb-image boots
// from such an image instead of generating, memory-mapping the file so the
// world is served pages-on-demand (and shared between replicas on one
// host). With -kb-image the generation flags (-flavor, -seed, -scale,
// -shards) are ignored — the image is the world, and the fingerprint
// handshake still guarantees it matches what the frontends built.
package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/kbgen"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/rdf/snapshot"
	"repro/internal/shardrpc"
)

func main() {
	addr := flag.String("addr", ":9101", "listen address")
	flavor := flag.String("flavor", "freebase", "knowledge base flavor (must match the frontend)")
	seed := flag.Int64("seed", 42, "generation seed (must match the frontend)")
	scale := flag.Int("scale", 30, "base entities per category (must match the frontend)")
	shards := flag.Int("shards", 4, "subject-hash shard count of the world (must match the frontend)")
	servers := flag.String("servers", "", "comma-separated list of every shard server; with -replicas this derives the shards this server owns (empty = own all shards)")
	self := flag.String("self", "", "this server's entry in -servers (default: -addr)")
	replicas := flag.Int("replicas", 2, "replication factor of the placement (used with -servers)")
	kbImage := flag.String("kb-image", "", "boot from this snapshot image instead of generating the world (generation flags are ignored)")
	kbSave := flag.String("kb-save", "", "after generating, write the world as a snapshot image to this path")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn, or error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	fatal := func(msg string, fields ...obs.Field) {
		logger.Error(msg, fields...)
		os.Exit(1)
	}

	var store rdf.Sharded
	if *kbImage != "" {
		if *kbSave != "" {
			fatal("-kb-save needs a generated world; it cannot be combined with -kb-image")
		}
		logger.Info("mapping world image", obs.F("path", *kbImage))
		im, err := snapshot.OpenImage(*kbImage, snapshot.OpenOptions{})
		if err != nil {
			fatal("open kb image", obs.F("path", *kbImage), obs.F("error", err.Error()))
		}
		defer im.Close()
		store = im
	} else {
		f, err := kbgen.ParseFlavor(*flavor)
		if err != nil {
			fatal("parse flavor", obs.F("error", err.Error()))
		}
		logger.Info("loading world", obs.F("flavor", *flavor), obs.F("seed", *seed),
			obs.F("scale", *scale), obs.F("shards", *shards))
		store = kbgen.Generate(kbgen.Config{Seed: *seed, Flavor: f, Scale: *scale, Shards: *shards}).Store
		if *kbSave != "" {
			if err := snapshot.WriteImageFile(*kbSave, store); err != nil {
				fatal("save kb image", obs.F("path", *kbSave), obs.F("error", err.Error()))
			}
			logger.Info("world image saved", obs.F("path", *kbSave),
				obs.F("fingerprint", rdf.WorldFingerprint(store)))
		}
	}

	var owns []int
	if *servers != "" {
		list := strings.Split(*servers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		me := *self
		if me == "" {
			me = *addr
		}
		pl, err := shardrpc.NewPlacement(list, store.NumShards(), *replicas)
		if err != nil {
			fatal("build placement", obs.F("error", err.Error()))
		}
		owns = pl.Owned(me)
		if len(owns) == 0 {
			fatal("this server owns no shards under the placement",
				obs.F("self", me), obs.F("servers", *servers))
		}
	}

	srv := shardrpc.NewServer(store, shardrpc.ServerOptions{Owns: owns, Logger: logger})
	st := srv.Stats()
	logger.Info("world ready", obs.F("triples", st.Triples),
		obs.F("shards", st.NumShards), obs.F("owned", len(st.Owned)),
		obs.F("fingerprint", rdf.WorldFingerprint(store)))

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", obs.F("addr", *addr), obs.F("error", err.Error()))
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, lis); err != nil {
		fatal("serve", obs.F("error", err.Error()))
	}
	st = srv.Stats()
	logger.Info("shard server stopped", obs.F("requests", st.Requests), obs.F("failures", st.Failures))
}
