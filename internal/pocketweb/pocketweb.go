// Package pocketweb implements the web-content pocket cloudlet the
// paper sketches alongside PocketSearch (footnote 2 and Sections 3.1-3.2):
// full web pages cached on the device's flash so that browsing, like
// searching, avoids the radio.
//
// PocketWeb exercises the data-management half of the pocket cloudlet
// architecture that PocketSearch does not need:
//
//   - Static pages (the long tail) change rarely; they are provisioned
//     and refreshed in bulk while the device charges on a fast link.
//   - Dynamic pages (news, stock quotes) change within the day. Bulk
//     updates over the radio would be prohibitive, but the paper's log
//     analysis shows the repeatedly accessed dynamic set is tiny ("70%
//     of web visits tend to be revisits to less than a couple of tens
//     of web pages"), so only the user's top-K dynamic pages are
//     refreshed in real time over the radio.
//
// Personal relevance is tracked with the frequency/recency model of
// internal/core; the cache evicts the lowest-scoring pages when its
// flash budget fills.
package pocketweb

import (
	"fmt"
	"time"

	"pocketcloudlets/internal/core"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/hash64"
)

// Source is the origin web: page sizes, volatility, and content
// versions over model time. internal/engine's Universe is adapted to
// this interface by NewEngineSource.
type Source interface {
	// PageBytes is the page's download/render size; zero or negative
	// means the URL does not exist.
	PageBytes(url string) int
	// Dynamic reports whether the page's content changes within a day.
	Dynamic(url string) bool
	// Version is the content version at a model time; a cached copy
	// with an older version is stale.
	Version(url string, at time.Duration) uint64
}

// Config parameterizes a PocketWeb cache.
type Config struct {
	// FlashBudget bounds the cache's flash usage in bytes.
	FlashBudget int64
	// RealTimeTopK is how many of the user's highest-scoring dynamic
	// pages are kept fresh over the radio (the paper: a couple of
	// tens).
	RealTimeTopK int
	// RefreshInterval is how often the real-time refresh sweep runs.
	RefreshInterval time.Duration
	// LambdaPerDay is the personal-model staleness decay.
	LambdaPerDay float64
}

// DefaultConfig returns the paper-guided defaults.
func DefaultConfig() Config {
	return Config{
		FlashBudget:     256 << 20, // Table 2: ~10% of NVM for web content
		RealTimeTopK:    20,
		RefreshInterval: time.Hour,
		LambdaPerDay:    0.1,
	}
}

// page is one cached page's metadata; contents live in the device's
// flash store under pw/<hash>.
type page struct {
	url     string
	bytes   int
	dynamic bool
	version uint64
}

// Stats counts cache activity.
type Stats struct {
	Visits    int
	FreshHits int
	StaleHits int // cached but outdated: refetched over the radio
	Misses    int
	// RealTimeRefreshes counts pages refreshed by the top-K sweep;
	// RefreshBytes is the radio traffic those refreshes cost.
	RealTimeRefreshes int
	RefreshBytes      int64
}

// HitRate is the fraction of visits served fresh from flash.
func (s Stats) HitRate() float64 {
	if s.Visits == 0 {
		return 0
	}
	return float64(s.FreshHits) / float64(s.Visits)
}

// Cache is a PocketWeb instance on a device.
type Cache struct {
	dev       *device.Device
	src       Source
	cfg       Config
	pages     map[uint64]*page
	used      int64
	personal  *core.PersonalModel
	lastSweep time.Duration
	stats     Stats
}

// New creates an empty PocketWeb cache.
func New(dev *device.Device, src Source, cfg Config) (*Cache, error) {
	if dev == nil || src == nil {
		return nil, fmt.Errorf("pocketweb: device and source are required")
	}
	def := DefaultConfig()
	if cfg.FlashBudget <= 0 {
		cfg.FlashBudget = def.FlashBudget
	}
	if cfg.RealTimeTopK <= 0 {
		cfg.RealTimeTopK = def.RealTimeTopK
	}
	if cfg.RefreshInterval <= 0 {
		cfg.RefreshInterval = def.RefreshInterval
	}
	if cfg.LambdaPerDay <= 0 {
		cfg.LambdaPerDay = def.LambdaPerDay
	}
	return &Cache{
		dev:      dev,
		src:      src,
		cfg:      cfg,
		pages:    make(map[uint64]*page),
		personal: core.NewPersonalModel(cfg.LambdaPerDay),
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// UsedBytes is the cache's current flash usage.
func (c *Cache) UsedBytes() int64 { return c.used }

// Len is the number of cached pages.
func (c *Cache) Len() int { return len(c.pages) }

// Contains reports whether a URL is cached (fresh or not).
func (c *Cache) Contains(url string) bool {
	_, ok := c.pages[hash64.Sum(url)]
	return ok
}

func fileName(h uint64) string { return fmt.Sprintf("pw/%x", h) }

// admit stores a page's content, evicting low-score pages as needed.
// The flash write is charged to the device; the caller pays any radio
// cost separately.
func (c *Cache) admit(url string, bytes int, version uint64, at time.Duration) {
	if int64(bytes) > c.cfg.FlashBudget {
		return // page larger than the whole budget: never cacheable
	}
	h := hash64.Sum(url)
	if old, ok := c.pages[h]; ok {
		c.used -= int64(old.bytes)
	}
	for c.used+int64(bytes) > c.cfg.FlashBudget {
		if !c.evictOne(h) {
			return
		}
	}
	// The modeled flash cost covers the full page; only a bounded
	// prefix is materialized in the in-memory store.
	lat := c.dev.Flash().OpenCost() + c.dev.Flash().WriteCost(bytes)
	c.dev.Store().ReplaceSilently(fileName(h), make([]byte, min(bytes, 4096)))
	c.dev.Busy(lat, device.Store)
	c.pages[h] = &page{url: url, bytes: bytes, dynamic: c.src.Dynamic(url), version: version}
	c.used += int64(bytes)
}

// evictOne removes the lowest-scoring page other than keep, returning
// false when nothing is evictable.
func (c *Cache) evictOne(keep uint64) bool {
	var victim uint64
	var victimScore float64
	found := false
	// A page's key is the hash of its URL, so it is the item's ID.
	for h := range c.pages {
		if h == keep {
			continue
		}
		s := c.personal.Score(core.ItemID(h))
		if !found || s < victimScore || (s == victimScore && h < victim) {
			victim, victimScore, found = h, s, true
		}
	}
	if !found {
		return false
	}
	p := c.pages[victim]
	c.used -= int64(p.bytes)
	delete(c.pages, victim)
	_ = c.dev.Store().Delete(fileName(victim))
	return true
}

// Provision bulk-loads pages while the device charges on a fast link:
// no radio cost, flash writes only (charged then discarded by callers
// that Reset the device, as with PocketSearch preloads).
func (c *Cache) Provision(urls []string, at time.Duration) {
	for _, url := range urls {
		b := c.src.PageBytes(url)
		if b <= 0 {
			continue
		}
		c.admit(url, b, c.src.Version(url, at), at)
	}
}

// Outcome describes how a visit was served.
type Outcome struct {
	// Hit means the page was served fresh from flash.
	Hit bool
	// WasStale means a cached copy existed but was outdated, so the
	// radio was used anyway.
	WasStale bool
	// Latency is the end-to-end time to display the page.
	Latency time.Duration
}

// Visit serves a browse to the URL at the given model time. Dynamic
// cached pages are only hits while their content version is current —
// a stale copy forces a radio refetch, exactly the freshness rule the
// paper's real-time updates exist to protect.
func (c *Cache) Visit(url string, at time.Duration) (Outcome, error) {
	pageBytes := c.src.PageBytes(url)
	if pageBytes <= 0 {
		return Outcome{}, fmt.Errorf("pocketweb: unknown url %q", url)
	}
	c.stats.Visits++
	c.personal.Touch(core.ItemID(hash64.Sum(url)), at)
	c.sweep(at)

	h := hash64.Sum(url)
	start := c.dev.Now()
	if p, ok := c.pages[h]; ok {
		fresh := !p.dynamic || p.version == c.src.Version(url, at)
		if fresh {
			c.stats.FreshHits++
			c.dev.Busy(c.dev.Flash().ReadCost(p.bytes), device.Fetch)
			c.dev.Render(p.bytes)
			return Outcome{Hit: true, Latency: c.dev.Now() - start}, nil
		}
		c.stats.StaleHits++
		c.dev.NetworkRequest(600, pageBytes)
		c.dev.Render(pageBytes)
		c.admit(url, pageBytes, c.src.Version(url, at), at)
		return Outcome{WasStale: true, Latency: c.dev.Now() - start}, nil
	}

	c.stats.Misses++
	c.dev.NetworkRequest(600, pageBytes)
	c.dev.Render(pageBytes)
	c.admit(url, pageBytes, c.src.Version(url, at), at)
	return Outcome{Latency: c.dev.Now() - start}, nil
}

// sweep runs the real-time refresh: at most every RefreshInterval, the
// user's top-K dynamic pages are version-checked and refetched over
// the radio if their content changed.
func (c *Cache) sweep(at time.Duration) {
	if at-c.lastSweep < c.cfg.RefreshInterval {
		return
	}
	c.lastSweep = at
	top := c.topDynamic(c.cfg.RealTimeTopK)
	for _, p := range top {
		current := c.src.Version(p.url, at)
		if current == p.version {
			continue
		}
		c.dev.NetworkRequest(600, p.bytes)
		c.admit(p.url, c.src.PageBytes(p.url), current, at)
		c.stats.RealTimeRefreshes++
		c.stats.RefreshBytes += int64(p.bytes)
	}
}

// topDynamic returns the K highest-scoring cached dynamic pages the
// user has actually visited. Provisioned-but-never-visited pages are
// excluded: refreshing those over the radio would be exactly the bulk
// update the paper rules out — real-time freshness is reserved for the
// small personally revisited set.
func (c *Cache) topDynamic(k int) []*page {
	var dyn []*page
	for _, p := range c.pages {
		if p.dynamic && c.personal.Score(core.ItemID(hash64.Sum(p.url))) > 0 {
			dyn = append(dyn, p)
		}
	}
	score := func(p *page) float64 {
		return c.personal.Score(core.ItemID(hash64.Sum(p.url)))
	}
	// Selection sort of the top K keeps this deterministic and simple.
	out := make([]*page, 0, k)
	for len(out) < k && len(dyn) > 0 {
		best := 0
		for i := 1; i < len(dyn); i++ {
			si, sb := score(dyn[i]), score(dyn[best])
			if si > sb || (si == sb && dyn[i].url < dyn[best].url) {
				best = i
			}
		}
		out = append(out, dyn[best])
		dyn = append(dyn[:best], dyn[best+1:]...)
	}
	return out
}
