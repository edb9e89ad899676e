// Package pocketsearch implements the PocketSearch cloudlet of
// Section 5 of the Pocket Cloudlets paper: an on-device search cache
// that serves web search queries from local flash, falling back to the
// cloud search engine over the radio on a miss.
//
// The cache has two interrelated components (Figure 6):
//
//   - The community component is preloaded from the community's search
//     logs (internal/cachegen) and gives a warm out-of-the-box start.
//   - The personalization component monitors the user's queries and
//     clicks: it expands the cache with pairs the user accessed that
//     the community part lacked, and it personalizes ranking scores —
//     the clicked result's score is incremented by one while its
//     siblings decay exponentially (Equations 1 and 2).
//
// Storage follows the paper's architecture (Figure 9): a DRAM hash
// table (internal/hashtable) linking query hashes to result hashes and
// scores, and a 32-file custom database (internal/resultdb) holding
// each search result record once in flash. All latencies and energy
// are charged against the device model (internal/device).
package pocketsearch

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/resultdb"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/suggest"
)

// DefaultLambda is the score decay constant of Equation 2: unselected
// sibling results decay by e^-lambda per click, so freshness of clicks
// outweighs stale history.
const DefaultLambda = 0.1

// SlotsPerEntry is the paper's hash-table slot count: two result slots
// per entry before a chain link, the footprint-optimal choice of
// Figure 11 (Section 5.2.1).
const SlotsPerEntry = 2

// ResultsShown is how many top-ranked cached results a hit fetches and
// displays: the prototype shows results in the auto-suggest box, and
// two are fetched in Table 4's breakdown.
const ResultsShown = 2

// LookupCost is the modeled hash-table lookup time: the paper measures
// 10 µs, negligible against every other component (Table 4).
const LookupCost = 10 * time.Microsecond

// Options configure a PocketSearch cache instance.
type Options struct {
	// DatabaseFiles is the result database file count. Zero selects
	// the paper's choice of 32.
	DatabaseFiles int
	// Lambda is the Equation 2 decay constant. Zero selects DefaultLambda.
	Lambda float64

	// DisablePersonalization turns off cache expansion and score
	// updates — the "community only" configuration of Figure 17.
	DisablePersonalization bool
	// DiscardResults skips materializing Outcome.Results: records are
	// still fetched (and their flash latency charged) and engine
	// responses still ship, but no result structs are parsed or
	// appended, so a serve allocates nothing for callers — load
	// generators, large-fleet benchmarks — that never read the result
	// list. Every latency, energy and hit/miss number is unchanged.
	DiscardResults bool
	// DisableSuggest skips maintaining the auto-completion index and
	// its query-text map. Nothing modeled reads them — every latency,
	// energy and hit/miss number is unchanged — but they cost a trie
	// plus a string map per cache (~15 KB of live heap per user after a
	// 2,000-user closed month), which at a million users is the
	// difference between fitting in host memory or not. Load runs set
	// it (scenario). Autocomplete returns nil while disabled.
	DisableSuggest bool
}

func (o Options) withDefaults() Options {
	if o.DatabaseFiles == 0 {
		o.DatabaseFiles = resultdb.DefaultFiles
	}
	if o.Lambda == 0 {
		o.Lambda = DefaultLambda
	}
	return o
}

// Settings are Options resolved for serving: defaults applied and
// Equation 2's decay factor computed. Immutable, so the caches built from
// one Options value share one (NewShared): a fleet's resident users hold
// a pointer to their fleet's, not a copy each.
type Settings struct {
	opts Options
	// decay is e^-Lambda, the factor Equation 2 applies to every
	// unselected sibling of a clicked result.
	decay float64
}

// Settings resolves o for serving.
func (o Options) Settings() *Settings {
	o = o.withDefaults()
	return &Settings{opts: o, decay: math.Exp(-o.Lambda)}
}

// Cache is a live PocketSearch instance on a device.
//
// Concurrency contract: a Cache models one device and is single-owner —
// Query, Preload, ReplaceTable and the other mutating methods must not
// be called concurrently. The fleet layer (internal/fleet) enforces this
// by serializing all access to a cache behind one lock: a personal
// cache's user stripe, a community replica's community lock. The only
// exception is the activity counters: Stats and ResetStats are safe to
// call from any goroutine, concurrently with Query, so monitoring never
// needs those locks.
type Cache struct {
	set   *Settings
	dev   *device.Device
	table *hashtable.Table
	db    *resultdb.DB
	eng   *engine.Engine

	// stats counters are atomic so Stats/ResetStats stay safe to call
	// concurrently with Query without a lock on the serve path.
	stats cacheStats
	// completions indexes the cached query strings for the Figure 1
	// auto-suggest box; queryText maps query hashes back to strings so
	// the index can follow hash table updates.
	completions *suggest.Index
	queryText   map[uint64]string
}

// refsOnStack is how many of a query's results a serve sorts in a buffer
// on its own stack; a longer chain (none a load run builds) spills to the
// heap.
const refsOnStack = 16

// cacheStats is the atomic backing store for Stats.
type cacheStats struct {
	queries, hits, misses, expansions, stale atomic.Int64
}

// Stats accumulates cache activity counters.
type Stats struct {
	Queries    int
	Hits       int
	Misses     int
	Expansions int // pairs added by the personalization component
	// Stale counts degraded serves: queries answered from cached
	// results while the cloud was unreachable (ServeStale). They are
	// not hits — the clicked result was not among the cached ones.
	Stale int
}

// HitRate returns the fraction of queries served locally.
func (s Stats) HitRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Queries)
}

// New creates an empty PocketSearch cache on the device, backed by the
// given cloud engine for misses.
func New(dev *device.Device, eng *engine.Engine, opts Options) (*Cache, error) {
	return NewShared(dev, eng, opts.Settings())
}

// NewShared is New for a cache that shares its settings with the other
// caches built from them. s must not change while the cache lives.
func NewShared(dev *device.Device, eng *engine.Engine, s *Settings) (*Cache, error) {
	if dev == nil || eng == nil {
		return nil, fmt.Errorf("pocketsearch: device and engine are required")
	}
	tbl, err := hashtable.New(SlotsPerEntry)
	if err != nil {
		return nil, err
	}
	db, err := resultdb.NewFrom(dev.Store(), eng.Records(), resultdb.Config{Files: s.opts.DatabaseFiles})
	if err != nil {
		return nil, err
	}
	c := &Cache{
		set:   s,
		dev:   dev,
		table: tbl,
		db:    db,
		eng:   eng,
	}
	if !s.opts.DisableSuggest {
		c.completions = suggest.New()
		c.queryText = make(map[uint64]string)
	}
	return c, nil
}

// Build creates a cache preloaded with community content. The preload
// models the overnight provisioning path (WiFi or tethered, device
// charging), which is uncharged: the device books no time, energy or
// radio use for it.
func Build(dev *device.Device, eng *engine.Engine, content cachegen.Content, opts Options) (*Cache, error) {
	c, err := New(dev, eng, opts)
	if err != nil {
		return nil, err
	}
	c.Preload(content)
	return c, nil
}

// Preload installs community content into the cache. Records are
// bulk-loaded one database file at a time, merged with any records
// already present (resultdb's Merge), each stored by its result's ID and
// length: nothing is rendered. The flash write latency Merge returns is
// discarded, so a preload charges the device nothing.
func (c *Cache) Preload(content cachegen.Content) {
	u := c.eng.Universe()
	recs := make([]resultdb.Record, 0, len(content.Triplets))
	for _, tr := range content.Triplets {
		q := u.QueryText(u.QueryOf(tr.Pair))
		id := u.ResultOf(tr.Pair)
		qh := hash64.Sum(q)
		rh := hash64.Sum(u.ResultURL(id))
		c.table.Put(qh, hashtable.SearchRef{ResultHash: rh, Score: content.Scores[tr.Pair]})
		// Completions rank by community popularity: the pair's volume.
		c.indexQuery(qh, q, float64(tr.Volume))
		recs = append(recs, record(u, rh, id))
	}
	c.db.Merge(recs)
}

// record is result id's record stored under hash rh, by its ID in the
// engine's record source and its length.
func record(u *engine.Universe, rh uint64, id searchlog.ResultID) resultdb.Record {
	return resultdb.Record{Hash: rh, ID: uint32(id), Length: uint32(u.RecordLen(id))}
}

// Table exposes the underlying hash table (used by the cache manager
// when synchronizing with the server, Section 5.4).
func (c *Cache) Table() *hashtable.Table { return c.table }

// QueryTexts returns a copy of the cache's query-hash → string map:
// the phone-side vocabulary the update cycle (and shard-to-shard state
// migration) ships so the receiving cache can rebuild its
// auto-completion index.
func (c *Cache) QueryTexts() map[uint64]string {
	out := make(map[uint64]string, len(c.queryText))
	for qh, q := range c.queryText {
		out[qh] = q
	}
	return out
}

// ReplaceTable installs a new hash table, completing the Section 5.4
// update cycle on the phone side. queryTexts carries the string form
// of the queries the server shipped, so the auto-completion index can
// be rebuilt; strings the phone already knows are preserved for pairs
// that survived the merge.
func (c *Cache) ReplaceTable(t *hashtable.Table, queryTexts map[uint64]string) {
	c.table = t
	if c.set.opts.DisableSuggest {
		return
	}
	for qh, q := range queryTexts {
		if q != "" {
			c.queryText[qh] = q
		}
	}
	prev := c.completions
	c.completions = suggest.New()
	for qh, q := range c.queryText {
		if !t.Contains(qh) {
			delete(c.queryText, qh)
			continue
		}
		best := 0.0
		for _, ref := range t.Lookup(qh) {
			if ref.Score > best {
				best = ref.Score
			}
		}
		// Surviving queries keep their established completion rank.
		if old, ok := prev.Score(q); ok && old > best {
			best = old
		}
		c.completions.Add(q, best)
	}
}

// indexQuery records a query string for auto-completion, keeping the
// best score seen.
func (c *Cache) indexQuery(qh uint64, q string, score float64) {
	if c.set.opts.DisableSuggest {
		return
	}
	c.queryText[qh] = q
	c.completions.Add(q, score)
}

// Autocomplete returns up to k cached-query completions of the typed
// prefix, best ranking score first — the Figure 1 auto-suggest box.
// Like Suggest, it is served entirely from DRAM: the production
// alternative the paper describes submits a server query per typed
// letter over the radio (Section 8).
func (c *Cache) Autocomplete(prefix string, k int) []suggest.Completion {
	if c.completions == nil {
		return nil
	}
	return c.completions.Complete(prefix, k)
}

// DB exposes the underlying result database.
func (c *Cache) DB() *resultdb.DB { return c.db }

// Device returns the device the cache runs on.
func (c *Cache) Device() *device.Device { return c.dev }

// Engine returns the cloud engine backing the cache.
func (c *Cache) Engine() *engine.Engine { return c.eng }

// Stats returns a snapshot of the activity counters. It is safe to
// call concurrently with Query.
func (c *Cache) Stats() Stats {
	return Stats{
		Queries:    int(c.stats.queries.Load()),
		Hits:       int(c.stats.hits.Load()),
		Misses:     int(c.stats.misses.Load()),
		Expansions: int(c.stats.expansions.Load()),
		Stale:      int(c.stats.stale.Load()),
	}
}

// ResetStats clears the activity counters. It is safe to call
// concurrently with Query.
func (c *Cache) ResetStats() {
	c.stats.queries.Store(0)
	c.stats.hits.Store(0)
	c.stats.misses.Store(0)
	c.stats.expansions.Store(0)
	c.stats.stale.Store(0)
}

// Outcome describes how one query was served.
type Outcome struct {
	// Hit reports whether the query (and the clicked result) was
	// served from the local cache.
	Hit bool
	// WasWarm reports that a miss's exchange on the device's own link
	// found the radio awake and skipped the wake-up: the fleet layer
	// counts the cold ones.
	WasWarm bool
	// Results are the displayed results, best-ranked first (cached
	// records on a hit, engine results on a miss).
	Results []engine.Result
	// Stages is the response time by stage — Table 4's lookup, fetch,
	// render and misc, and on a miss the network stages: what the serve
	// charged to the device (DESIGN.md, "Where a response's time goes").
	Stages device.Stages
	// RadioActive is the radio-active time of a miss's exchange (zero on
	// a hit): the fleet layer reads it to attribute radio energy per
	// request.
	RadioActive time.Duration
	// Stored is the logical flash bytes the miss's cache expansion
	// added to the result database (zero on a hit, and when the clicked
	// result was already stored): the fleet layer books it against the
	// user's storage budget.
	Stored int64
}

// ResponseTime is the end-to-end user response time of the query: the
// sum of its stages. A pointer method: the serve path asks several times
// per request, of an Outcome inside a Response it holds by pointer, and
// a value receiver copied the whole struct each time.
func (o *Outcome) ResponseTime() time.Duration { return o.Stages.Total() }

// RemovePair removes one (query, result) pair from the cache index,
// dropping the query from auto-completion when its last result goes
// (the incremental daily-update path uses this for pruned pairs).
func (c *Cache) RemovePair(queryHash, resultHash uint64) bool {
	ok := c.table.Remove(queryHash, resultHash)
	if ok && !c.table.Contains(queryHash) {
		if q, known := c.queryText[queryHash]; known {
			c.completions.Remove(q)
			delete(c.queryText, queryHash)
		}
	}
	return ok
}

// Probe reports whether the cache holds the (query, clicked result)
// pair — Query's hit criterion — without charging any model cost, and
// where: the pair's position in the cache index, which Hit serves from.
// The fleet layer routes a request to the cache tier that will serve it
// this way, and hands that tier the position.
func (c *Cache) Probe(queryHash, resultHash uint64) (hashtable.Probe, bool) {
	return c.table.Probe(queryHash, resultHash)
}

// ContainsQuery reports whether the cache holds any results for the
// query, regardless of which result the user will click — the
// criterion of the fleet's degradation ladder (a stale answer beats no
// answer when the cloud is unreachable). No model cost is charged.
func (c *Cache) ContainsQuery(queryHash uint64) bool {
	return c.table.Contains(queryHash)
}

// UnavailablePageBytes is the size of the explicit degraded response —
// the small locally rendered "results unavailable, retry later" page
// served when every rung of the degradation ladder is exhausted.
const UnavailablePageBytes = 2_000

// ServeStale serves whatever the cache holds for the query as a
// degraded answer while the cloud is unreachable: the top-ranked
// cached records are fetched and rendered exactly like a hit, but the
// interaction is NOT a hit (the clicked result is not known to be
// among the cached ones) and no personalization is applied — the cache
// must not learn from an answer the user did not choose. It reports
// false, charging nothing, when the query has no cached results.
func (c *Cache) ServeStale(queryText string) (Outcome, bool) {
	var buf [refsOnStack]hashtable.SearchRef
	refs := c.table.LookupInto(hash64.Sum(queryText), buf[:0])
	if len(refs) == 0 {
		return Outcome{}, false
	}
	c.stats.queries.Add(1)
	c.stats.stale.Add(1)

	var out Outcome
	w := c.dev.Window(&out.Stages)
	w.Busy(LookupCost, device.Lookup)
	shown := ResultsShown
	if shown > len(refs) {
		shown = len(refs)
	}
	var fetch time.Duration
	for _, r := range refs[:shown] {
		rec, lat, err := c.db.Fetch(r.ResultHash)
		if err != nil {
			continue
		}
		fetch += lat
		if !c.set.opts.DiscardResults {
			if res, perr := c.eng.Records().Result(rec.ID); perr == nil {
				out.Results = append(out.Results, res)
			}
		}
	}
	w.Busy(fetch, device.Fetch)
	w.Render(ResultsPageBytes)
	w.Misc()
	return out, true
}

// EvictResult removes every cached (query, result) pair referencing
// the result, the result record itself, and any auto-completions whose
// query lost its last cached result. The flash rewrite latency is
// charged to the device. It returns the logical flash bytes freed —
// the currency of the fleet layer's storage budget (Section 7's user
// vs. pocket cloudlet storage arbitration, applied across users).
func (c *Cache) EvictResult(resultHash uint64) int64 {
	before := c.db.LogicalBytes()
	if c.table.RemoveResult(resultHash) > 0 {
		for qh, q := range c.queryText {
			if !c.table.Contains(qh) {
				c.completions.Remove(q)
				delete(c.queryText, qh)
			}
		}
	}
	if lat, ok := c.db.Delete(resultHash); ok {
		c.dev.Busy(lat, device.Store)
	}
	return before - c.db.LogicalBytes()
}

// Suggest returns the cached results for a query without charging any
// serving cost — the instant auto-suggest experience of the prototype
// GUI (Figure 1): cached results appear as the user types, and the 3G
// path is only taken if the user asks for fresh results.
func (c *Cache) Suggest(queryText string) []engine.Result {
	refs := c.table.Lookup(hash64.Sum(queryText))
	var out []engine.Result
	for _, r := range refs {
		rec, _, err := c.db.Fetch(r.ResultHash)
		if err != nil {
			continue
		}
		res, err := c.eng.Records().Result(rec.ID)
		if err != nil {
			continue
		}
		out = append(out, res)
	}
	return out
}

// suggestPersonalBoost scales personal click scores above raw
// community volumes in the auto-completion ranking.
const suggestPersonalBoost = 1000

// ResultsPageBytes is the nominal size of the rendered search results
// page: ~100 KB whether assembled locally or downloaded (Table 2).
const ResultsPageBytes = 100_000

// Query serves one search interaction: the user submits queryText and
// clicks the result with clickURL. It returns the serving outcome and
// advances the device's model clock and energy accounting.
//
// A query is a cache hit only when the query is present AND the
// clicked result is among its cached results — the same criterion the
// paper uses for repeated queries (same query, same clicked result).
func (c *Cache) Query(queryText, clickURL string) (Outcome, error) {
	return c.QueryHashed(hash64.Sum(queryText), hash64.Sum(clickURL), queryText, clickURL)
}

// QueryHashed is Query for a caller that already holds the pair's
// hashes — qh must be hash64.Sum(queryText) and ch hash64.Sum(clickURL):
// the fleet, which classified the request by them.
func (c *Cache) QueryHashed(qh, ch uint64, queryText, clickURL string) (Outcome, error) {
	if p, ok := c.table.Probe(qh, ch); ok {
		var out Outcome
		err := c.Hit(p, qh, queryText, &out)
		return out, err
	}

	// Cache miss: query the engine over the radio.
	c.stats.queries.Add(1)
	var out Outcome
	w := c.dev.Window(&out.Stages)
	w.Busy(LookupCost, device.Lookup)
	c.stats.misses.Add(1)
	resp, found := c.eng.Search(queryText)
	tr := w.NetworkRequest(QueryRequestBytes, MissPageBytes(resp))
	c.missOutcome(w, qh, ch, queryText, clickURL, resp, found, tr, &out)
	return out, nil
}

// Hit serves a cache hit into out: p is where a Probe of this cache found
// the (query, clicked result) pair — with no Put or Remove on the index
// since (hashtable.Probe) — and qh the query's hash. The top-ranked
// records are fetched from flash and rendered, the click is folded into
// the ranking scores (Equations 1 and 2) and the pair is marked accessed,
// all from the probed position: the index is searched once per hit. A
// record is fetched by name (resultdb's Fetch), its flash latency
// charged, and a displayed result is the engine's Result of its ID. This
// is the steady-state serve path; with DiscardResults set it allocates
// nothing.
func (c *Cache) Hit(p hashtable.Probe, qh uint64, queryText string, out *Outcome) error {
	c.stats.queries.Add(1)
	c.stats.hits.Add(1)
	*out = Outcome{Hit: true}
	w := c.dev.Window(&out.Stages)
	w.Busy(LookupCost, device.Lookup)

	var buf [refsOnStack]hashtable.SearchRef
	refs := p.Refs(buf[:0])
	shown := ResultsShown
	if shown > len(refs) {
		shown = len(refs)
	}
	var fetch time.Duration
	for _, r := range refs[:shown] {
		rec, lat, err := c.db.Fetch(r.ResultHash)
		if err != nil {
			return fmt.Errorf("pocketsearch: hit fetch: %w", err)
		}
		fetch += lat
		if !c.set.opts.DiscardResults {
			res, err := c.eng.Records().Result(rec.ID)
			if err != nil {
				return fmt.Errorf("pocketsearch: hit parse: %w", err)
			}
			out.Results = append(out.Results, res)
		}
	}
	w.Busy(fetch, device.Fetch)
	w.Render(ResultsPageBytes)
	w.Misc()
	if !c.set.opts.DisablePersonalization {
		// Personal clicks outweigh raw community volume in the
		// completion ranking: the user's own queries surface first.
		c.indexQuery(qh, queryText, p.Click(c.set.decay)*suggestPersonalBoost)
	}
	p.MarkAccessed()
	return nil
}

// missOutcome is the tail every cache miss shares once its exchange has
// been charged to the device, through w, the window on out's stages — tr
// is the radio's account of it, the one term in which a miss on the
// device's own link and a member of a coalesced session differ. The
// device still renders the downloaded page and pays the fixed misc cost,
// and the clicked result expands the personalization component, off the
// response's stages.
func (c *Cache) missOutcome(w device.Window, qh, ch uint64, queryText, clickURL string, resp engine.SearchResponse, found bool, tr radio.Transfer, out *Outcome) {
	out.WasWarm, out.RadioActive = tr.WasWarm, tr.RadioActive
	w.Render(MissPageBytes(resp))
	w.Misc()
	if found && !c.set.opts.DiscardResults {
		out.Results = resp.Results()
	}
	if !c.set.opts.DisablePersonalization && clickURL != "" {
		out.Stored = c.expand(qh, ch, queryText, clickURL, resp)
	}
}

// MissPageBytes returns the result-page size a miss for resp ships
// over the radio: the engine's page size, or the nominal ~100 KB page
// when the engine had no results (the device still downloads an empty
// results page).
func MissPageBytes(resp engine.SearchResponse) int {
	if resp.PageBytes > 0 {
		return resp.PageBytes
	}
	return ResultsPageBytes
}

// ApplyBatchedMiss serves a query already classified as a cache miss
// whose cloud exchange was coalesced with other misses: resp and found
// carry the engine response fetched by the batched engine visit, wait
// is the modeled latency until this item's response landed (the shared
// wake-up and handshake plus every payload through this item), and
// share is the radio-active time attributed to the item
// (radio.BatchTransfer.ItemShare). The device pays the same lookup,
// render, misc and expansion costs as Query's miss path, so hit/miss
// accounting and cache state evolve byte-identically whether or not
// misses coalesce — only the network term and radio energy differ.
func (c *Cache) ApplyBatchedMiss(queryText, clickURL string, resp engine.SearchResponse, found bool, wait, share time.Duration) Outcome {
	c.stats.queries.Add(1)
	c.stats.misses.Add(1)
	var out Outcome
	w := c.dev.Window(&out.Stages)
	w.Busy(LookupCost, device.Lookup)
	w.NetworkBatchShare(wait, share)
	c.missOutcome(w, hash64.Sum(queryText), hash64.Sum(clickURL), queryText, clickURL, resp, found,
		radio.Transfer{RadioActive: share}, &out)
	return out
}

// QueryRequestBytes is the size of the HTTP search request — exported
// alongside ResultsPageBytes so the fleet's miss dispatcher can model
// the batched radio exchange itself.
const QueryRequestBytes = 800

// expand implements the personalization component's cache expansion:
// after a miss, the (query, clicked result) pair enters the cache with
// score 1 so future repeats hit locally. The clicked result's record is
// stored by its ID and length, unrendered, and the pair indexed. It
// returns the logical flash bytes the database grew by.
func (c *Cache) expand(qh, ch uint64, queryText, clickURL string, resp engine.SearchResponse) int64 {
	id, ok := resp.FindID(clickURL)
	if !ok {
		// The engine did not return the clicked result (synthetic
		// streams never hit this; defensive for interactive use).
		return 0
	}
	before := c.db.LogicalBytes()
	lat := c.db.PutRecord(record(c.eng.Universe(), ch, id))
	// Stored off the critical path, but still paid in time/energy.
	c.dev.Busy(lat, device.Store)
	c.table.Put(qh, hashtable.SearchRef{ResultHash: ch, Score: 1})
	c.table.MarkAccessed(qh, ch)
	c.indexQuery(qh, queryText, suggestPersonalBoost)
	c.stats.expansions.Add(1)
	return c.db.LogicalBytes() - before
}
