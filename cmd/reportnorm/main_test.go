package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins the normalized output for a real loadtest report
// (testdata/report.json was produced by a hedged, backend-enabled,
// autoscaled run). Regenerate the goldens after an intentional format
// change with:
//
//	go run ./cmd/reportnorm < cmd/reportnorm/testdata/report.json > cmd/reportnorm/testdata/report.golden
//	go run ./cmd/reportnorm -keep backend < cmd/reportnorm/testdata/report.json > cmd/reportnorm/testdata/report_keep_backend.golden
func TestGolden(t *testing.T) {
	cases := []struct {
		keep   string
		golden string
	}{
		{"", "report.golden"},
		{"backend", "report_keep_backend.golden"},
	}
	in, err := os.ReadFile(filepath.Join("testdata", "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(tc.keep, bytes.NewReader(in), &out); err != nil {
			t.Fatalf("-keep %q: %v", tc.keep, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-keep %q: output differs from %s (see regeneration note above)", tc.keep, tc.golden)
		}
	}
}

func TestGoldenStripsTheRightKeys(t *testing.T) {
	// Belt and braces next to the byte-exact check: the default golden
	// must not mention any stripped key, and each -keep golden must
	// restore exactly its own block.
	def, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for k := range volatileKeys {
		if strings.Contains(string(def), `"`+k+`"`) {
			t.Errorf("default golden still contains volatile key %q", k)
		}
	}
	for k := range defaultStrip {
		if strings.Contains(string(def), `"`+k+`"`) {
			t.Errorf("default golden still contains default-stripped key %q", k)
		}
	}
	for keep, golden := range map[string]string{
		"backend": "report_keep_backend.golden",
	} {
		kept, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(kept), `"`+keep+`"`) {
			t.Errorf("-keep %s golden lost its %q block", keep, keep)
		}
		for k := range defaultStrip {
			if k != keep && strings.Contains(string(kept), `"`+k+`"`) {
				t.Errorf("-keep %s golden contains default-stripped key %q", keep, k)
			}
		}
		for k := range volatileKeys {
			if strings.Contains(string(kept), `"`+k+`"`) {
				t.Errorf("-keep %s golden contains volatile key %q — -keep must not restore those", keep, k)
			}
		}
	}
}

func TestKeepRejectsUnknownKeys(t *testing.T) {
	if _, err := stripSet("elapsed_ns"); err == nil {
		t.Error("-keep elapsed_ns should be rejected: volatile keys are not restorable")
	}
	for _, k := range []string{"nonsense", "energy", "autoscale"} {
		if _, err := stripSet(k); err == nil {
			t.Errorf("-keep %s should be rejected: only \"backend\" is stripped by default", k)
		}
	}
	if _, err := stripSet(" backend , "); err != nil {
		t.Errorf("-keep with spaces should parse: %v", err)
	}
}
