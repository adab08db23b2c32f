// Command kbqa-shard is an index server of the distributed serving
// topology: the cluster is a frontend (kbqa-server -shard-servers) over
// replicated index servers. Each kbqa-shard loads the whole
// (deterministically generated) world and answers shardrpc index reads —
// path walks and reverse subject lookups — for any subject, so a read
// phase is one frame to one server: the frontend takes the servers in
// turn, hedges a slow frame and fails over to the next server. Replicas
// need no data movement and no server list. Start N of these and point
// kbqa-server's -shard-servers at them:
//
//	kbqa-shard -addr :9101
//	kbqa-shard -addr :9102
//	kbqa-server -shard-servers :9101,:9102
//
// The generated world is the one kbqa-server builds from the same -flavor
// and -seed, at the default scale. Generating it dominates boot
// time: -kb-image boots from a snapshot image (written by kbqa-learn
// -kb-image) instead, memory-mapping the file so the world is served
// pages-on-demand (and shared between replicas on one host). With
// -kb-image the generation flags are ignored — the image is the world.
// Either way the handshake refuses a frontend that built another world,
// down to one triple: it compares the frontend's world digest with this
// world's.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
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
	flag.String("servers", "", "ignored: every server serves the whole world (ROADMAP item 1(d) deletes this flag)")
	flag.Int("replicas", 2, "ignored: every server serves the whole world (ROADMAP item 1(d) deletes this flag)")
	kbImage := flag.String("kb-image", "", "boot from this snapshot image instead of generating the world (generation flags are ignored)")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn, or error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	fatal := func(msg string, fields ...obs.Field) {
		logger.Error(msg, fields...)
		os.Exit(1)
	}

	var store rdf.Graph
	var digest uint64
	if *kbImage != "" {
		logger.Info("mapping world image", obs.F("path", *kbImage))
		im, err := snapshot.OpenImage(*kbImage)
		if err != nil {
			fatal("open kb image", obs.F("path", *kbImage), obs.F("error", err.Error()))
		}
		defer im.Close()
		store, digest = im, im.Digest()
	} else {
		f, err := kbgen.ParseFlavor(*flavor)
		if err != nil {
			fatal("parse flavor", obs.F("error", err.Error()))
		}
		logger.Info("loading world", obs.F("flavor", *flavor), obs.F("seed", *seed))
		gen := kbgen.Generate(kbgen.Config{Seed: *seed, Flavor: f}).Store
		store, digest = gen, snapshot.Digest(gen)
	}

	srv := shardrpc.NewServer(store, digest, shardrpc.ServerOptions{Logger: logger})
	st := srv.Stats()
	logger.Info("world ready", obs.F("triples", st.Triples),
		obs.F("digest", fmt.Sprintf("%016x", digest)))

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
