// Command kbqa-learn runs the offline procedure (Sec 2's "offline part"):
// it synthesizes the knowledge base and QA corpus, extracts entity–value
// pairs, estimates P(p|t) with EM, and writes the learned model to disk.
//
// Usage:
//
//	kbqa-learn -flavor kba -o model.gob
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/kbqa"
)

func main() {
	flavor := flag.String("flavor", "freebase", "knowledge base flavor: kba, freebase, dbpedia")
	seed := flag.Int64("seed", 42, "generation seed")
	scale := flag.Int("scale", 0, "entities per category (0: the library default, 30)")
	pairs := flag.Int("pairs", 0, "training QA pairs per intent (0: the flavor's default, kba 80, freebase 40, dbpedia 28)")
	noise := flag.Float64("noise", 0.15, "corpus noise rate")
	out := flag.String("o", "kbqa-model.gob", "output model path")
	kbOut := flag.String("kb-image", "", "also write the knowledge base as a snapshot image to this path (for kbqa-shard/-server -kb-image boot)")
	flag.Parse()

	sys, err := kbqa.Build(kbqa.Options{
		Flavor:         *flavor,
		Seed:           *seed,
		Scale:          *scale,
		PairsPerIntent: *pairs,
		NoiseRate:      noise, // flag pointer: -noise 0 now really means noise-free
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbqa-learn:", err)
		os.Exit(1)
	}
	st := sys.Stats()
	fmt.Printf("offline procedure complete over %s:\n", st.Flavor)
	fmt.Printf("  corpus:     %d QA pairs\n", st.CorpusSize)
	fmt.Printf("  templates:  %d\n", st.Templates)
	fmt.Printf("  predicates: %d (direct + expanded)\n", st.Intents)

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbqa-learn:", err)
		os.Exit(1)
	}
	err = sys.SaveModel(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbqa-learn:", err)
		os.Exit(1)
	}
	fmt.Printf("model written to %s\n", *out)

	if *kbOut != "" {
		if err := sys.SaveKBImage(*kbOut); err != nil {
			fmt.Fprintln(os.Stderr, "kbqa-learn:", err)
			os.Exit(1)
		}
		fmt.Printf("kb image written to %s\n", *kbOut)
	}
}
