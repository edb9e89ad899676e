package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pocketcloudlets/internal/reportnorm"
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
		if err := reportnorm.Run(tc.keep, bytes.NewReader(in), &out); err != nil {
			t.Fatalf("-keep %q: %v", tc.keep, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-keep %q: output differs from %s (see regeneration note above)", tc.keep, tc.golden)
		}
	}
}

func TestGoldenStripsTheRightKeys(t *testing.T) {
	// Belt and braces next to the byte-exact check: a golden must not
	// mention any key its -keep strips — the volatile keys always, which
	// -keep must not restore — and a -keep golden must restore its block.
	for keep, golden := range map[string]string{
		"":        "report.golden",
		"backend": "report_keep_backend.golden",
	} {
		out, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		strip, err := reportnorm.StripSet(keep)
		if err != nil {
			t.Fatal(err)
		}
		for k := range strip {
			if strings.Contains(string(out), `"`+k+`"`) {
				t.Errorf("-keep %q golden still contains stripped key %q", keep, k)
			}
		}
		if keep != "" && !strings.Contains(string(out), `"`+keep+`"`) {
			t.Errorf("-keep %s golden lost its %q block", keep, keep)
		}
	}
}

func TestKeepRejectsUnknownKeys(t *testing.T) {
	if _, err := reportnorm.StripSet("elapsed_ns"); err == nil {
		t.Error("-keep elapsed_ns should be rejected: volatile keys are not restorable")
	}
	for _, k := range []string{"nonsense", "energy", "autoscale"} {
		if _, err := reportnorm.StripSet(k); err == nil {
			t.Errorf("-keep %s should be rejected: only \"backend\" is stripped by default", k)
		}
	}
	if _, err := reportnorm.StripSet(" backend , "); err != nil {
		t.Errorf("-keep with spaces should parse: %v", err)
	}
}
