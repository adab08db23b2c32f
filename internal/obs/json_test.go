package obs

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzAppendJSONString: for any string, the appender writes exactly what
// json.Marshal writes.
//
//	go test -run '^$' -fuzz FuzzAppendJSONString -fuzztime 15s ./internal/obs/
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "<a href=\"x\">&amp;</a>", `back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028para\u2029", "bad\xff\xfe", "trunc\xe2\x82", "ünïcødé 🙂", "\ufffd",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSONString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	})
}

// TestAppendJSONFloatMatchesMarshal: the float rule, at every boundary of
// encoding/json's switch between plain and exponent form.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.0 / 3, 0.9725490196078432, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), 9.999999e-7, 1e-7, 1.5e-10, 2.5e-100, 5e-324, -3e-8,
		1e20, math.Nextafter(1e21, 0), 1e21, 1.5e21, 1e100, -2e22, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendJSONFloat(nil, f)
		if !ok || string(got) != string(want) {
			t.Errorf("AppendJSONFloat(%v) = %s, %v; want %s", f, got, ok, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%v) succeeded", f)
		}
		if got, ok := AppendJSONFloat([]byte("x"), f); ok || string(got) != "x" {
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want nothing appended and false", f, got, ok)
		}
	}
}
