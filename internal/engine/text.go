package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"pocketcloudlets/internal/searchlog"
)

// This file materializes the human-readable side of the universe:
// titles, snippets and the ~500-byte serialized search-result records
// that the PocketSearch database stores (Section 5.2.2 measures the
// average record at 500 bytes: title, short description of the landing
// page, and the human-readable form of the hyperlink).

var lexicon = [...]string{
	"mobile", "service", "official", "community", "guide", "daily",
	"results", "network", "online", "photo", "music", "video", "news",
	"local", "review", "profile", "market", "travel", "health", "game",
	"forum", "store", "search", "weather", "sport", "finance", "radio",
}

// Result is a materialized search result: everything PocketSearch
// needs to render the same search experience as the engine.
type Result struct {
	ID         searchlog.ResultID
	URL        string
	Title      string
	Snippet    string
	DisplayURL string
}

// Result materializes the search result with the given ID. The address
// and the title are built in one stack buffer and cut from one string,
// and the snippet is a table read: a result costs one allocation.
func (u *Universe) Result(r searchlog.ResultID) Result {
	var a [128]byte
	b := u.appendURL(a[:0], r)
	n := len(b)
	s := string(u.appendTitle(b, r))
	url := s[:n]
	return Result{
		ID:         r,
		URL:        url,
		Title:      s[n:],
		Snippet:    u.snippet(r),
		DisplayURL: strings.TrimSuffix(url, "/"),
	}
}

// appendTitle appends result r's title to b.
func (u *Universe) appendTitle(b []byte, r searchlog.ResultID) []byte {
	i := int(r)
	w1 := lexicon[i%len(lexicon)]
	w2 := lexicon[(i/7+3)%len(lexicon)]
	tail := " reference"
	if i < u.navResults {
		b = append(b, "Site "...)
		b = strconv.AppendInt(b, int64(i/2), 36)
		if i%2 == 0 {
			b, tail = append(b, " — the "...), " portal"
		} else {
			b, tail = append(b, " Videos — "...), " section"
		}
	} else {
		b = append(b, "Info "...)
		b = strconv.AppendInt(b, int64(i-u.navResults), 36)
		b = append(b, ": "...)
	}
	b = append(b, w1...)
	b = append(b, ' ')
	b = append(b, w2...)
	return append(b, tail...)
}

// snippets holds every landing-page description the universe can
// produce. Word n of result i's snippet is
// lexicon[(i*31+n*17+n*n)%len(lexicon)], which depends on i only through
// i%len(lexicon), so there are len(lexicon) distinct snippets and a
// result's snippet is a table read, not a rebuild.
var snippets = func() (t [len(lexicon)]string) {
	for i := range t {
		t[i] = buildSnippet(i)
	}
	return t
}()

// buildSnippet produces a deterministic ~400-character landing-page
// description so that records land near the paper's 500-byte average.
func buildSnippet(i int) string {
	var b strings.Builder
	for n := 0; b.Len() < 390; n++ {
		w := lexicon[(i*31+n*17+n*n)%len(lexicon)]
		if n == 0 {
			b.WriteString(strings.ToUpper(w[:1]))
			b.WriteString(w[1:])
			continue
		}
		b.WriteByte(' ')
		b.WriteString(w)
	}
	b.WriteByte('.')
	return b.String()
}

func (u *Universe) snippet(r searchlog.ResultID) string {
	return snippets[int(r)%len(snippets)]
}

// recordSep separates fields inside a serialized record; it never
// appears in generated text.
const recordSep = '\x1f'

// Record serializes the result into the plain-text form stored in the
// custom database files.
func (r Result) Record() []byte {
	b := make([]byte, 0, len(r.Title)+len(r.URL)+len(r.DisplayURL)+len(r.Snippet)+3)
	b = append(b, r.Title...)
	b = append(b, recordSep)
	b = append(b, r.URL...)
	b = append(b, recordSep)
	b = append(b, r.DisplayURL...)
	b = append(b, recordSep)
	return append(b, r.Snippet...)
}

// AppendRecord appends result r's record — byte for byte
// Result(r).Record() — to b, building no string on the way.
func (u *Universe) AppendRecord(b []byte, r searchlog.ResultID) []byte {
	b = u.appendTitle(b, r)
	b = append(b, recordSep)
	start := len(b)
	b = u.appendURL(b, r)
	url := b[start:]
	b = append(b, recordSep)
	b = append(b, bytes.TrimSuffix(url, []byte("/"))...)
	b = append(b, recordSep)
	return append(b, u.snippet(r)...)
}

// RecordLen is the length of result r's record, len(Result(r).Record()),
// summed from the widths of its fields: nothing is rendered.
func (u *Universe) RecordLen(r searchlog.ResultID) int {
	url := u.urlLen(r)
	display := url
	if int(r) < u.navResults && r%2 == 0 {
		display-- // a front page's address ends in the '/' its display drops
	}
	return u.titleLen(r) + url + display + len(u.snippet(r)) + 3
}

// titleLen is the length of result r's title (appendTitle).
func (u *Universe) titleLen(r searchlog.ResultID) int {
	i := int(r)
	n := len(lexicon[i%len(lexicon)]) + 1 + len(lexicon[(i/7+3)%len(lexicon)])
	switch {
	case i >= u.navResults:
		return n + len("Info ") + b36Len(i-u.navResults) + len(": ") + len(" reference")
	case i%2 == 0:
		return n + len("Site ") + b36Len(i/2) + len(" — the ") + len(" portal")
	default:
		return n + len("Site ") + b36Len(i/2) + len(" Videos — ") + len(" section")
	}
}

// urlLen is the length of result r's address (appendURL).
func (u *Universe) urlLen(r searchlog.ResultID) int {
	i := int(r)
	switch {
	case i >= u.navResults:
		j := i - u.navResults
		return len("www.info") + b36Len(j) + len(".net/article/") + b36Len(j%97)
	case i%2 == 0:
		return len("www.site") + b36Len(i/2) + len(".com/")
	default:
		return len("www.site") + b36Len(i/2) + len(".com/videos")
	}
}

// b36Len is the number of digits strconv renders n ≥ 0 with in base 36.
func b36Len(n int) int {
	d := 1
	for ; n >= 36; n /= 36 {
		d++
	}
	return d
}

// RecordID names the result whose record is exactly rec: it reads the
// address field, resolves it, and holds the result's rendering to rec.
func (u *Universe) RecordID(rec []byte) (searchlog.ResultID, bool) {
	_, rest, _ := bytes.Cut(rec, []byte{recordSep})
	url, _, _ := bytes.Cut(rest, []byte{recordSep})
	r, ok := u.ResolveURL(string(url))
	if !ok || u.RecordLen(r) != len(rec) {
		return 0, false
	}
	var a [1 << 10]byte
	return r, bytes.Equal(u.AppendRecord(a[:0], r), rec)
}

// ParseRecord deserializes a record produced by Record. The result ID
// is not part of the record (the database keys records by URL hash).
// The record is copied once and the four fields are substrings of that
// copy, so a parsed result costs one allocation, not one per field.
func ParseRecord(data []byte) (Result, error) {
	const sep = string(recordSep)
	s := string(data)
	if n := strings.Count(s, sep) + 1; n != 4 {
		return Result{}, fmt.Errorf("engine: malformed record: %d fields, want 4", n)
	}
	title, s, _ := strings.Cut(s, sep)
	url, s, _ := strings.Cut(s, sep)
	display, snippet, _ := strings.Cut(s, sep)
	return Result{Title: title, URL: url, DisplayURL: display, Snippet: snippet}, nil
}

// PageBytes returns the size of the full search-result page for the
// result, as downloaded from the engine on a cache miss. The paper
// sizes a search result page at ~100 KB (Table 2).
func (u *Universe) PageBytes(r searchlog.ResultID) int {
	return 90_000 + int(r%21)*1000
}
