package experiments

import (
	"fmt"
	"time"

	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
)

// AutocompleteResult carries the keystroke-latency extension
// experiment: typing a query letter by letter with local
// auto-completion versus the production scheme the paper describes in
// Section 8, where every typed letter submits a background query to
// the server over the radio.
type AutocompleteResult struct {
	Query     string
	Keystroke int // letters typed
	// LocalPerKey is the modeled on-device completion time per
	// keystroke (a DRAM trie walk, bounded by the paper's 10 µs
	// lookup scale).
	LocalPerKey time.Duration
	// RadioTotal is the cumulative radio time for per-letter server
	// suggestions over 3G (first letter pays the wake-up; later
	// letters ride the warm radio).
	RadioTotal time.Duration
	// LocalSuggestions is how many of the typed prefixes produced at
	// least one local completion.
	LocalSuggestions int
}

// ExtAutocomplete types a popular cached query one letter at a time
// and compares the cost of suggesting after each keystroke.
func ExtAutocomplete(l *Lab) AutocompleteResult {
	u := l.Universe()
	_, cache := newServeCache(l, pathPocketSearch)
	content := l.Content()
	query := u.QueryText(u.QueryOf(content.Triplets[0].Pair))

	r := AutocompleteResult{Query: query, Keystroke: len(query), LocalPerKey: pocketsearch.LookupCost}
	for i := 1; i <= len(query); i++ {
		if len(cache.Autocomplete(query[:i], 8)) > 0 {
			r.LocalSuggestions++
		}
	}

	// The server path: one background query per keystroke, ~1 KB of
	// suggestions back, over a 3G link that stays warm between letters.
	link := radio.NewLink(radio.ThreeG())
	for i := 1; i <= len(query); i++ {
		tr := link.Request(200+i, 1000)
		r.RadioTotal += tr.Total()
		// A fast typist: ~250 ms between keystrokes, inside the tail.
		link.Advance(250 * time.Millisecond)
	}
	return r
}

// Table renders the comparison.
func (r AutocompleteResult) Table() Table {
	localTotal := time.Duration(r.Keystroke) * r.LocalPerKey
	return Table{
		ID:      "Extension: auto-completion",
		Title:   fmt.Sprintf("Typing %q letter by letter (%d keystrokes)", r.Query, r.Keystroke),
		Columns: []string{"scheme", "total suggestion time", "per keystroke"},
		Rows: [][]string{
			{"local trie (PocketSearch)", localTotal.String(), r.LocalPerKey.String()},
			{"server query per letter over 3G (Section 8)", r.RadioTotal.Round(time.Millisecond).String(),
				(r.RadioTotal / time.Duration(r.Keystroke)).Round(time.Millisecond).String()},
		},
		Notes: []string{
			fmt.Sprintf("%d/%d prefixes produced local suggestions", r.LocalSuggestions, r.Keystroke),
			"paper (Section 8): production phones submitted a background query per typed letter — 'the usual slow mobile search experience'",
		},
	}
}
