// Package adlet implements the advertisement half of the paper's
// "search and advertisement pocket cloudlet" (Figures 1 and 6): ad
// banners cached on the device and displayed instantly next to cached
// search results.
//
// Two policies come straight from the paper:
//
//   - Ads are provisioned for the same popular queries the search
//     cache holds, because the two caches are accessed together.
//   - An ad cache lookup only happens on a search cache hit: "if a
//     particular query misses in the local search cache, there is not
//     much benefit in hitting the ad cache" (Section 7) — on a miss
//     the radio is waking up anyway and fresh ads ride along with the
//     result page.
//
// Serving ads locally also means impressions happen offline; the
// cloudlet keeps an impression log that is flushed to the ad network
// during the nightly sync, following the localhost ad-serving model
// the paper cites.
package adlet

import (
	"fmt"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/searchlog"
)

// BannerBytes is the size of one cached ad banner (Table 2: 5 KB).
const BannerBytes = 5 * 1000

// Ad is one advertisement creative.
type Ad struct {
	// ID identifies the creative.
	ID uint64
	// QueryHash is the query the ad is targeted at.
	QueryHash uint64
	// Text is the rendered banner copy.
	Text string
	// Bid is the advertiser's bid, used to rank ads for a query.
	Bid float64
}

// Inventory is the ad network's procedural creative store: popular
// queries carry zero to two targeted ads.
type Inventory struct {
	u *engine.Universe
}

// NewInventory builds the inventory over a corpus.
func NewInventory(u *engine.Universe) *Inventory { return &Inventory{u: u} }

// AdsForQuery returns the creatives targeted at a query, best bid
// first. Roughly two thirds of queries are monetized.
func (inv *Inventory) AdsForQuery(q searchlog.QueryID) []Ad {
	n := int(q) % 3 // 0, 1 or 2 ads
	text := inv.u.QueryText(q)
	qh := hash64.Sum(text)
	ads := make([]Ad, 0, n)
	for i := 0; i < n; i++ {
		ads = append(ads, Ad{
			ID:        qh ^ uint64(i+1)*0x9E3779B97F4A7C15,
			QueryHash: qh,
			Text:      fmt.Sprintf("Sponsored: best deals for %q (#%d)", text, i+1),
			Bid:       0.05 + float64((int(q)+i)%20)/100,
		})
	}
	return ads
}

// Impression records one locally served ad.
type Impression struct {
	AdID uint64
	At   time.Duration
}

// Stats counts ad-serving activity.
type Stats struct {
	// Lookups is how many search hits consulted the ad cache.
	Lookups int
	// Served is how many lookups displayed at least one cached ad.
	Served int
	// SkippedOnMiss counts search misses where, per policy, the ad
	// cache was not consulted.
	SkippedOnMiss int
}

// Cache is the on-device ad cloudlet.
type Cache struct {
	dev   *device.Device
	inv   *Inventory
	index map[uint64][]Ad // query hash -> cached creatives
	log   []Impression
	stats Stats
}

// New creates an empty ad cache.
func New(dev *device.Device, inv *Inventory) (*Cache, error) {
	if dev == nil || inv == nil {
		return nil, fmt.Errorf("adlet: device and inventory are required")
	}
	return &Cache{dev: dev, inv: inv, index: make(map[uint64][]Ad)}, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of cached creatives.
func (c *Cache) Len() int {
	n := 0
	for _, ads := range c.index {
		n += len(ads)
	}
	return n
}

// FlashBytes is the cache's modeled banner storage.
func (c *Cache) FlashBytes() int64 { return int64(c.Len()) * BannerBytes }

// Provision installs the creatives for the queries of a community
// cache content — the same popular set PocketSearch preloads, so the
// two cloudlets cover the same queries (Figure 6's shared pipeline).
func (c *Cache) Provision(content cachegen.Content, u *engine.Universe) {
	seen := make(map[searchlog.QueryID]bool)
	var flash time.Duration
	for _, tr := range content.Triplets {
		q := u.QueryOf(tr.Pair)
		if seen[q] {
			continue
		}
		seen[q] = true
		ads := c.inv.AdsForQuery(q)
		if len(ads) == 0 {
			continue
		}
		c.index[hash64.Sum(u.QueryText(q))] = ads
		flash += c.dev.Flash().WriteCost(len(ads) * BannerBytes)
	}
	c.dev.Busy(flash, device.Store)
}

// Serve returns the cached ads for a query. It implements the
// coordinated-access policy: on a search miss the ad cache is not
// consulted at all and nil is returned — the fresh ads arrive with the
// result page over the radio that is already waking up.
func (c *Cache) Serve(queryText string, searchHit bool) []Ad {
	if !searchHit {
		c.stats.SkippedOnMiss++
		return nil
	}
	c.stats.Lookups++
	ads := c.index[hash64.Sum(queryText)]
	if len(ads) == 0 {
		return nil
	}
	c.stats.Served++
	// Reading the banners from flash rides the same charge window as
	// the search results fetch.
	c.dev.Busy(c.dev.Flash().ReadCost(len(ads)*BannerBytes), device.Fetch)
	for _, ad := range ads {
		c.log = append(c.log, Impression{AdID: ad.ID, At: c.dev.Now()})
	}
	return ads
}

// PendingImpressions reports how many offline impressions await flush.
func (c *Cache) PendingImpressions() int { return len(c.log) }

// FlushImpressions hands the accumulated offline impressions to the ad
// network (during the nightly sync — no radio cost is charged here)
// and clears the log.
func (c *Cache) FlushImpressions() []Impression {
	out := c.log
	c.log = nil
	return out
}
