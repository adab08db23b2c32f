// Package benchjson is the one writer of the CI benchmark artifact.
package benchjson

import (
	"encoding/json"
	"os"
	"testing"
)

// Write merges payload under key into the JSON object at $BENCH_JSON
// (creating the file if absent), so every benchmark in the CI step
// contributes its section to one artifact instead of clobbering it. No-op
// when BENCH_JSON is unset.
func Write(tb testing.TB, key string, payload map[string]any) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		// A corrupt or legacy flat file just starts the document over.
		if json.Unmarshal(data, &doc) != nil {
			doc = map[string]json.RawMessage{}
		}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		tb.Fatal(err)
	}
	doc[key] = data
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
}
