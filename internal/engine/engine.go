package engine

import (
	"strconv"
	"strings"

	"pocketcloudlets/internal/searchlog"
)

// PairsForQuery returns the pairs (and hence ranked results) the engine
// associates with a query, best-ranked first. Navigational queries have
// two results (front page, then section page); non-navigational queries
// have their segment's click-list length (6 down to 1).
func (u *Universe) PairsForQuery(q searchlog.QueryID) []searchlog.PairID {
	if int(q) < u.navQueries {
		b, form := int(q)/4, int(q)%4
		return []searchlog.PairID{
			searchlog.PairID(8*b + form),     // primary: front page
			searchlog.PairID(8*b + 4 + form), // secondary: section page
		}
	}
	qidx := int(q) - u.navQueries
	s := u.nnSegmentForQuery(qidx)
	first := s.pairStart + (qidx-s.queryStart)*s.perQuery
	pairs := make([]searchlog.PairID, s.perQuery)
	for i := range pairs {
		pairs[i] = u.NonNavPair(first + i)
	}
	return pairs
}

// ResolveQuery maps a query string back to its QueryID.
func (u *Universe) ResolveQuery(text string) (searchlog.QueryID, bool) {
	switch {
	case strings.HasPrefix(text, "www.site"):
		body := text[len("www.site"):]
		form := 2
		if strings.HasSuffix(body, ".com") {
			body = strings.TrimSuffix(body, ".com")
			form = 3
		}
		b, ok := parseB36(body)
		if !ok || b >= u.navBlocks {
			return 0, false
		}
		return searchlog.QueryID(4*b + form), true
	case strings.HasPrefix(text, "site"):
		body := text[len("site"):]
		form := 0
		if strings.HasSuffix(body, ".com") {
			body = strings.TrimSuffix(body, ".com")
			form = 1
		}
		b, ok := parseB36(body)
		if !ok || b >= u.navBlocks {
			return 0, false
		}
		return searchlog.QueryID(4*b + form), true
	case strings.HasPrefix(text, "q") && strings.HasSuffix(text, " facts"):
		qidx, ok := parseB36(text[1 : len(text)-len(" facts")])
		if !ok || qidx >= u.nnQueries {
			return 0, false
		}
		return searchlog.QueryID(u.navQueries + qidx), true
	}
	return 0, false
}

// ResolveURL maps a web address back to its result identifier.
func (u *Universe) ResolveURL(url string) (searchlog.ResultID, bool) {
	switch {
	case strings.HasPrefix(url, "www.site"):
		body := strings.TrimPrefix(url, "www.site")
		odd := false
		switch {
		case strings.HasSuffix(body, ".com/"):
			body = strings.TrimSuffix(body, ".com/")
		case strings.HasSuffix(body, ".com/videos"):
			body = strings.TrimSuffix(body, ".com/videos")
			odd = true
		default:
			return 0, false
		}
		b, ok := parseB36(body)
		if !ok || b >= u.navBlocks {
			return 0, false
		}
		rid := 2 * b
		if odd {
			rid++
		}
		return searchlog.ResultID(rid), true
	case strings.HasPrefix(url, "www.info"):
		rest := strings.TrimPrefix(url, "www.info")
		i := strings.Index(rest, ".net/article/")
		if i < 0 {
			return 0, false
		}
		j, ok := parseB36(rest[:i])
		if !ok || j >= u.cfg.NonNavPairs {
			return 0, false
		}
		rid := searchlog.ResultID(u.navResults + j)
		if !u.isURL(rid, url) {
			return 0, false
		}
		return rid, true
	}
	return 0, false
}

// ResolvePair implements searchlog.PairResolver: it maps the string
// form (query, clicked URL) back to the pair identifier.
func (u *Universe) ResolvePair(query, url string) (searchlog.PairID, bool) {
	q, ok := u.ResolveQuery(query)
	if !ok {
		return 0, false
	}
	for _, p := range u.PairsForQuery(q) {
		if u.ResultURL(u.ResultOf(p)) == url {
			return p, true
		}
	}
	return 0, false
}

func parseB36(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 36, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return int(n), true
}

// Engine is the cloud search service: it resolves query strings to
// ranked, materialized results. Latency and energy of reaching it are
// modeled by the device/radio layer, not here.
type Engine struct {
	u       *Universe
	records *Records
}

// New creates an engine over the given universe.
func New(u *Universe) *Engine { return &Engine{u: u, records: &Records{u: u}} }

// Universe returns the engine's corpus.
func (e *Engine) Universe() *Universe { return e.u }

// Records returns the engine's record source: what every result
// database of a cache the engine backs stores its records by.
func (e *Engine) Records() *Records { return e.records }

// SearchResponse is what the engine returns for a query: the ranked
// results by identifier. Result text is a pure function of the
// identifier, so the response carries no strings of its own: Results
// materializes the ranked results for a caller that reads them, FindID
// names the clicked one without text, and a caller that reads only
// PageBytes (a load generator pricing the radio exchange) costs the
// engine no allocation at all.
type SearchResponse struct {
	Query string
	// PageBytes is the size of the rendered result page shipped to
	// the device (~100 KB); zero when the engine had no results.
	PageBytes int

	// The ranked results are the n consecutive identifiers from first
	// (see Universe.resultsForQuery).
	u     *Universe
	first searchlog.ResultID
	n     int
}

// Len returns the number of ranked results.
func (r SearchResponse) Len() int { return r.n }

// ID returns the identifier of the i-th ranked result, best first.
func (r SearchResponse) ID(i int) searchlog.ResultID {
	return r.first + searchlog.ResultID(i)
}

// Results materializes every ranked result, best first.
func (r SearchResponse) Results() []Result {
	if r.n == 0 {
		return nil
	}
	out := make([]Result, r.n)
	for i := range out {
		out[i] = r.u.Result(r.ID(i))
	}
	return out
}

// FindID returns the identifier of the ranked result with the given web
// address — the result the user clicked — or reports that the response
// does not contain it. It builds no text.
func (r SearchResponse) FindID(url string) (searchlog.ResultID, bool) {
	if r.n == 0 {
		return 0, false
	}
	id, ok := r.u.ResolveURL(url)
	if !ok || id < r.first || int(id-r.first) >= r.n {
		return 0, false
	}
	// ResolveURL tolerates non-canonical numerals ("www.site01.com/");
	// only the exact address names the result.
	return id, r.u.isURL(id, url)
}

// resultsForQuery returns a query's ranked results as a run of
// consecutive identifiers: a navigational query's front page and
// section page are results 2b and 2b+1 of its block, and every
// non-navigational pair clicks its own result, so a query's click list
// is the contiguous rank range of its pairs. It is PairsForQuery
// composed with ResultOf, without the slice.
func (u *Universe) resultsForQuery(q searchlog.QueryID) (first searchlog.ResultID, n int) {
	if int(q) < u.navQueries {
		return searchlog.ResultID(2 * (int(q) / 4)), 2
	}
	qidx := int(q) - u.navQueries
	s := u.nnSegmentForQuery(qidx)
	rank := s.pairStart + (qidx-s.queryStart)*s.perQuery
	return searchlog.ResultID(u.navResults + rank), s.perQuery
}

// Search resolves a query string. Unknown queries return ok == false
// (the engine has no results; the device still paid for the round trip).
func (e *Engine) Search(query string) (SearchResponse, bool) {
	q, ok := e.u.ResolveQuery(query)
	if !ok {
		return SearchResponse{Query: query}, false
	}
	first, n := e.u.resultsForQuery(q)
	return SearchResponse{
		Query:     query,
		PageBytes: e.u.PageBytes(first),
		u:         e.u,
		first:     first,
		n:         n,
	}, true
}

// SearchBatch resolves a batch of query strings in one engine visit —
// the cloud half of the fleet's miss coalescing: concurrent cache
// misses that share one radio session also share one call into the
// engine. Element i of both slices is exactly what Search(queries[i])
// would have returned.
func (e *Engine) SearchBatch(queries []string) ([]SearchResponse, []bool) {
	resps := make([]SearchResponse, len(queries))
	found := make([]bool, len(queries))
	for i, q := range queries {
		resps[i], found[i] = e.Search(q)
	}
	return resps, found
}
