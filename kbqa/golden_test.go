package kbqa

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// The golden gate pins the observable output of the default world. The
// query digest was recorded on the commit before the KB seam was
// narrowed, the image digest when image format 3 dropped the shard split
// (one set of triple sections, no shard count or shard field); a refactor
// of the store, the engine's read path or the public API must leave them
// unchanged. A
// deliberate change of answers or of the image format re-records them —
// and says so in the PR.
const (
	goldenImageSHA256 = "3d011a8dcc68ff1870439441f71e9eec8a413bb557a26d2e76424a483ff89a0e"
	goldenQuerySHA256 = "1094259151b385648ec7cbe7b50bb5f5aee087eb0cc3704ed741dfe85413b598"
)

// goldenVariantQuestions are the ranking / comparison / listing questions
// of the gate; the corpus and the composed complex questions carry none.
var goldenVariantQuestions = []string{
	"Which city has the largest population?",
	"Which city has the 3rd largest population?",
	"Which city has the smallest area?",
	"List cities by population",
	"List countries ordered by area",
}

// goldenRow is the canonical form of one Query outcome: everything a
// caller can observe except timings and the trace id.
type goldenRow struct {
	Q               string           `json:"q"`
	Answer          *Answer          `json:"answer,omitempty"`
	Interpretations []Interpretation `json:"interpretations,omitempty"`
	Variant         *VariantAnswer   `json:"variant,omitempty"`
	Code            string           `json:"code,omitempty"`
}

// roundScore keeps six significant digits, so the digest pins answers,
// rankings and scores but not the last bits of the arithmetic: a change that
// only reorders a floating-point sum moves a score in its last ulps. Two
// builds of one binary agree to the bit (TestBuildsAgreeBitForBit).
func roundScore(x float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	return r
}

func goldenQuestions(sys *System) []string {
	var qs []string
	for _, p := range sys.TrainingCorpus() {
		qs = append(qs, p.Q)
	}
	for _, cq := range sys.ComplexQuestions(17, 20) {
		qs = append(qs, cq.Q)
	}
	return append(qs, goldenVariantQuestions...)
}

// queryDigest hashes the canonical JSON of Query over the gate's questions.
func queryDigest(t *testing.T, sys *System) (digest string, answered, variants int) {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, q := range goldenQuestions(sys) {
		row := goldenRow{Q: q}
		res, err := sys.Query(context.Background(), q)
		if err != nil {
			row.Code = ErrorCode(err)
		} else {
			row.Variant = res.Variant
			if res.Answer != nil {
				a := *res.Answer
				a.Score = roundScore(a.Score)
				row.Answer = &a
			}
			for _, in := range res.Interpretations {
				in.Score = roundScore(in.Score)
				row.Interpretations = append(row.Interpretations, in)
			}
			answered++
			if res.Variant != nil {
				variants++
			}
		}
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), answered, variants
}

func TestGoldenQueryDigest(t *testing.T) {
	sys, err := Build(Options{Flavor: "freebase", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	got, answered, variants := queryDigest(t, sys)
	if answered == 0 || variants != len(goldenVariantQuestions) {
		t.Fatalf("gate is vacuous: %d answered, %d variants", answered, variants)
	}
	if got != goldenQuerySHA256 {
		t.Errorf("query digest %s, want %s (%d answered)", got, goldenQuerySHA256, answered)
	}
}

// TestBuildsAgreeBitForBit: two builds of the default world learn θ to the
// same bits, so Query returns the same results, scores at full precision,
// from one boot of a server to the next.
func TestBuildsAgreeBitForBit(t *testing.T) {
	var runs [2][]goldenRow
	for i := range runs {
		sys, err := Build(Options{Flavor: "freebase", Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range goldenQuestions(sys) {
			row := goldenRow{Q: q}
			res, err := sys.Query(context.Background(), q, WithTopK(8))
			if err != nil {
				row.Code = ErrorCode(err)
			} else {
				row.Answer, row.Interpretations, row.Variant = res.Answer, res.Interpretations, res.Variant
			}
			runs[i] = append(runs[i], row)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	differ := 0
	for j, a := range runs[0] {
		if b := runs[1][j]; !reflect.DeepEqual(a, b) {
			if differ++; differ <= 3 {
				t.Errorf("%q differs between two builds:\n  %+v\n  %+v", a.Q, a.Interpretations, b.Interpretations)
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d questions differ between two builds", differ, len(runs[0]))
	}
}

// goldenModelFingerprints pins the model Build learns for each flavor and
// seed (learn.Model.Fingerprint: θ to six decimals and the template
// frequencies), recorded before EM moved onto a cell table. A change to the
// offline phase that is meant to be a refactor must leave them unchanged.
var goldenModelFingerprints = map[string]map[int64]uint64{
	"freebase": {42: 0xe16a535d811f4ef4, 7: 0x712849c521f4dc0f},
	"kba":      {42: 0xf0adc66557a2be2b, 7: 0xa30f598ff21dd29c},
	"dbpedia":  {42: 0x0e8ccfa711cc9cad, 7: 0x411d77084863c024},
}

func TestGoldenModelFingerprints(t *testing.T) {
	for flavor, seeds := range goldenModelFingerprints {
		for seed, want := range seeds {
			sys, err := Build(Options{Flavor: flavor, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.world.Model.Fingerprint(); got != want {
				t.Errorf("%s seed %d: model fingerprint %016x, want %016x", flavor, seed, got, want)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGoldenImageDigest(t *testing.T) {
	sys, err := Build(Options{Flavor: "freebase", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	path := filepath.Join(t.TempDir(), "world.img")
	if err := sys.SaveKBImage(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenImageSHA256 {
		t.Errorf("image digest %s, want %s (%d bytes)", got, goldenImageSHA256, len(data))
	}
}
