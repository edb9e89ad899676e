// Package engine implements the cloud side of the PocketSearch system:
// a deterministic, procedurally generated universe of queries and
// search results standing in for the paper's m.bing.com corpus, and a
// search engine that resolves queries to ranked results and serves
// full result pages over the (simulated) network.
//
// The universe is procedural — queries, URLs, titles and snippets are
// derived arithmetically from identifiers — so month-scale logs with
// millions of entries can reference it through compact 32-bit pair IDs
// (see internal/searchlog) without materializing strings.
//
// Structure, chosen to reproduce the sharing patterns of Sections 4
// and 5 of the paper:
//
//   - Navigational pairs come in blocks of eight consecutive
//     popularity ranks covering four alias queries ("site42",
//     "site42.com", "www.site42", "www.site42.com") and two results on
//     the same site (the front page and a section page). The four
//     primary pairs outrank the four secondary ones. The 2:1
//     query-to-result aliasing in the popular head reproduces the
//     paper's observation that popular pages are reached through many
//     query variants (6000 queries vs 4000 results for the same
//     volume; the "boa" → bankofamerica effect) while keeping every
//     navigational query a substring of its clicked URL, which is
//     exactly the paper's navigational classifier.
//   - Non-navigational queries have click lists whose length falls
//     with popularity (6, 4, 3, 2, then 1 result per query), matching
//     the paper's observation that popular queries such as
//     "michael jackson" accumulate several popular clicked results
//     (Table 3). This distribution is what makes two results per hash
//     table entry the footprint-optimal choice in Figure 11.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pocketcloudlets/internal/searchlog"
)

// Segment describes one band of non-navigational queries: Queries
// consecutive queries, each with ResultsPerQuery clicked results.
type Segment struct {
	Queries         int
	ResultsPerQuery int
}

// Config sizes the universe.
type Config struct {
	// NavPairs is the number of navigational (query, result) pairs,
	// ranked 0.. by community popularity. Must be a multiple of 8
	// (the navigational block size).
	NavPairs int
	// NonNavPairs is the number of non-navigational pairs.
	NonNavPairs int
	// NonNavSegments is the head structure of the non-navigational
	// space; the remaining pairs form a tail of one-result queries.
	// Nil selects DefaultConfig's segments.
	NonNavSegments []Segment
}

// DefaultConfig returns the universe dimensions used throughout the
// evaluation: 160k navigational pairs (40k results, 80k queries) and
// 1M non-navigational pairs whose head queries have 6/4/3/2 results.
func DefaultConfig() Config {
	return Config{
		NavPairs:    160_000,
		NonNavPairs: 1_000_000,
		NonNavSegments: []Segment{
			{Queries: 200, ResultsPerQuery: 6},
			{Queries: 800, ResultsPerQuery: 4},
			{Queries: 4000, ResultsPerQuery: 3},
			{Queries: 25000, ResultsPerQuery: 2},
		},
	}
}

// nnSegment is a resolved non-navigational segment with offsets.
type nnSegment struct {
	perQuery   int
	queryStart int // first query index of the segment
	pairStart  int // first non-nav pair rank of the segment
	queries    int
}

// Universe is the procedural query/result world. It implements
// searchlog.PairMeta and searchlog.PairResolver.
type Universe struct {
	cfg        Config
	navBlocks  int // number of 6-pair navigational blocks
	navResults int // number of navigational results (2 per block)
	navQueries int // number of navigational query strings (3 per block)
	segments   []nnSegment
	nnQueries  int // total non-navigational query strings
}

// NewUniverse validates the configuration and builds the universe.
func NewUniverse(cfg Config) (*Universe, error) {
	if cfg.NavPairs <= 0 || cfg.NonNavPairs <= 0 {
		return nil, fmt.Errorf("engine: pair counts must be positive: %+v", cfg)
	}
	if cfg.NavPairs%8 != 0 {
		return nil, fmt.Errorf("engine: NavPairs (%d) must be a multiple of 8", cfg.NavPairs)
	}
	if cfg.NonNavSegments == nil {
		cfg.NonNavSegments = DefaultConfig().NonNavSegments
	}
	u := &Universe{cfg: cfg}
	u.navBlocks = cfg.NavPairs / 8
	u.navResults = 2 * u.navBlocks
	u.navQueries = 4 * u.navBlocks
	pair, query := 0, 0
	for i, s := range cfg.NonNavSegments {
		if s.Queries <= 0 || s.ResultsPerQuery <= 0 {
			return nil, fmt.Errorf("engine: segment %d invalid: %+v", i, s)
		}
		u.segments = append(u.segments, nnSegment{
			perQuery:   s.ResultsPerQuery,
			queryStart: query,
			pairStart:  pair,
			queries:    s.Queries,
		})
		pair += s.Queries * s.ResultsPerQuery
		query += s.Queries
	}
	if pair > cfg.NonNavPairs {
		return nil, fmt.Errorf("engine: segments need %d pairs but NonNavPairs is %d", pair, cfg.NonNavPairs)
	}
	// Tail: one result per query.
	tail := cfg.NonNavPairs - pair
	u.segments = append(u.segments, nnSegment{
		perQuery:   1,
		queryStart: query,
		pairStart:  pair,
		queries:    tail,
	})
	u.nnQueries = query + tail
	return u, nil
}

// MustUniverse is NewUniverse for known-good configurations.
func MustUniverse(cfg Config) *Universe {
	u, err := NewUniverse(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Config returns the universe configuration.
func (u *Universe) Config() Config { return u.cfg }

// NumPairs implements searchlog.PairMeta.
func (u *Universe) NumPairs() int { return u.cfg.NavPairs + u.cfg.NonNavPairs }

// NumResults reports the number of distinct search results.
func (u *Universe) NumResults() int { return u.navResults + u.cfg.NonNavPairs }

// NumQueries reports the number of distinct query strings.
func (u *Universe) NumQueries() int { return u.navQueries + u.nnQueries }

// IsNavPair reports whether the pair is in the navigational space.
func (u *Universe) IsNavPair(p searchlog.PairID) bool { return int(p) < u.cfg.NavPairs }

// Rank returns the popularity rank of a pair within its own space
// (navigational ranks and non-navigational ranks are separate scales).
func (u *Universe) Rank(p searchlog.PairID) int {
	if u.IsNavPair(p) {
		return int(p)
	}
	return int(p) - u.cfg.NavPairs
}

// NavPair returns the pair at the given navigational popularity rank.
func (u *Universe) NavPair(rank int) searchlog.PairID { return searchlog.PairID(rank) }

// NonNavPair returns the pair at the given non-navigational rank.
func (u *Universe) NonNavPair(rank int) searchlog.PairID {
	return searchlog.PairID(u.cfg.NavPairs + rank)
}

// nnSegmentFor locates the segment containing the non-nav pair rank.
func (u *Universe) nnSegmentFor(rank int) nnSegment {
	i := sort.Search(len(u.segments), func(i int) bool {
		s := u.segments[i]
		return rank < s.pairStart+s.queries*s.perQuery
	})
	return u.segments[i]
}

// nnSegmentForQuery locates the segment containing a non-nav query index.
func (u *Universe) nnSegmentForQuery(qidx int) nnSegment {
	i := sort.Search(len(u.segments), func(i int) bool {
		s := u.segments[i]
		return qidx < s.queryStart+s.queries
	})
	return u.segments[i]
}

// QueryOf implements searchlog.PairMeta.
func (u *Universe) QueryOf(p searchlog.PairID) searchlog.QueryID {
	if u.IsNavPair(p) {
		i := int(p)
		// Block of eight: four primary pairs then four secondary
		// pairs, over the block's four alias queries.
		return searchlog.QueryID(4*(i/8) + i%4)
	}
	j := int(p) - u.cfg.NavPairs
	s := u.nnSegmentFor(j)
	qidx := s.queryStart + (j-s.pairStart)/s.perQuery
	return searchlog.QueryID(u.navQueries + qidx)
}

// ResultOf implements searchlog.PairMeta.
func (u *Universe) ResultOf(p searchlog.PairID) searchlog.ResultID {
	if u.IsNavPair(p) {
		i := int(p)
		// Primary pairs (block offsets 0-3) click the site front page
		// (even result); secondary pairs (4-7) click its section page.
		return searchlog.ResultID(2*(i/8) + (i%8)/4)
	}
	// Every non-navigational pair clicks its own result.
	return searchlog.ResultID(u.navResults + (int(p) - u.cfg.NavPairs))
}

// Navigational implements searchlog.PairMeta: true when the query
// string is a substring of the clicked URL, which by construction
// holds exactly for the navigational pair space.
func (u *Universe) Navigational(p searchlog.PairID) bool {
	return strings.Contains(u.ResultURL(u.ResultOf(p)), u.QueryText(u.QueryOf(p)))
}

func b36(n int) string { return strconv.FormatInt(int64(n), 36) }

// QueryText implements searchlog.PairMeta.
func (u *Universe) QueryText(q searchlog.QueryID) string {
	if int(q) < u.navQueries {
		b := int(q) / 4
		switch int(q) % 4 {
		case 0:
			return "site" + b36(b)
		case 1:
			return "site" + b36(b) + ".com"
		case 2:
			return "www.site" + b36(b)
		default:
			return "www.site" + b36(b) + ".com"
		}
	}
	qidx := int(q) - u.navQueries
	return "q" + b36(qidx) + " facts"
}

// ResultURL implements searchlog.PairMeta.
func (u *Universe) ResultURL(r searchlog.ResultID) string {
	// Assembled in a stack buffer: one allocation, the string itself.
	var a [48]byte
	return string(u.appendURL(a[:0], r))
}

// isURL reports whether url is result r's address, building no string.
func (u *Universe) isURL(r searchlog.ResultID, url string) bool {
	var a [48]byte
	return string(u.appendURL(a[:0], r)) == url
}

// appendURL appends result r's address to b.
func (u *Universe) appendURL(b []byte, r searchlog.ResultID) []byte {
	if int(r) < u.navResults {
		b = append(b, "www.site"...)
		b = strconv.AppendInt(b, int64(r)/2, 36)
		if int(r)%2 == 0 {
			return append(b, ".com/"...)
		}
		return append(b, ".com/videos"...)
	}
	j := int64(int(r) - u.navResults)
	b = append(b, "www.info"...)
	b = strconv.AppendInt(b, j, 36)
	b = append(b, ".net/article/"...)
	return strconv.AppendInt(b, j%97, 36)
}
