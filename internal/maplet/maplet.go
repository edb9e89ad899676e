// Package maplet implements the mapping pocket cloudlet the paper
// sizes in Table 2 and Section 7: map tiles cached on the device so
// that map browsing within the user's home region never touches the
// radio.
//
// Table 2's arithmetic is built in: at ~5 KB per 128x128-pixel tile,
// the 25.6 GB cloudlet budget holds ~5 million tiles, and "assuming
// that each map tile covers 300x300 meters of actual earth surface,
// 5.5 million map tiles can cover the area of a whole state".
//
// The cloudlet provisions a tile pyramid over the user's region —
// coarse zoom levels worldwide are cheap, the deepest levels are
// restricted to the region the budget affords — and serves viewport
// requests from flash. Tiles outside the provisioned region are
// fetched over the radio and kept under an LRU budget, so a trip out
// of state warms a temporary working set.
package maplet

import (
	"fmt"
	"math"

	"pocketcloudlets/internal/device"
)

// TileBytes is the footprint of one map tile (Table 2: 5 KB).
const TileBytes = 5 * 1000

// TileKey identifies one tile of the pyramid: zoom level Z with a
// 2^Z x 2^Z grid over the normalized world square.
type TileKey struct {
	Z    int
	X, Y int
}

// Valid reports whether the key addresses a real tile.
func (k TileKey) Valid() bool {
	if k.Z < 0 || k.Z > 30 {
		return false
	}
	n := 1 << uint(k.Z)
	return k.X >= 0 && k.X < n && k.Y >= 0 && k.Y < n
}

// TileAt returns the tile containing the normalized world point (x, y)
// at a zoom level.
func TileAt(x, y float64, z int) TileKey {
	n := float64(int(1) << uint(z))
	tx := int(x * n)
	ty := int(y * n)
	if tx >= int(n) {
		tx = int(n) - 1
	}
	if ty >= int(n) {
		ty = int(n) - 1
	}
	if tx < 0 {
		tx = 0
	}
	if ty < 0 {
		ty = 0
	}
	return TileKey{Z: z, X: tx, Y: ty}
}

// Region is a rectangle in normalized world coordinates [0, 1).
type Region struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the point is inside the region.
func (r Region) Contains(x, y float64) bool {
	return x >= r.MinX && x < r.MaxX && y >= r.MinY && y < r.MaxY
}

// TileCount returns how many tiles cover the region at a zoom level.
func (r Region) TileCount(z int) int64 {
	n := float64(int(1) << uint(z))
	x0, x1 := int(r.MinX*n), int(math.Ceil(r.MaxX*n))
	y0, y1 := int(r.MinY*n), int(math.Ceil(r.MaxY*n))
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	return int64(x1-x0) * int64(y1-y0)
}

// Tiles enumerates the region's tiles at a zoom level.
func (r Region) Tiles(z int) []TileKey {
	n := float64(int(1) << uint(z))
	x0, x1 := int(r.MinX*n), int(math.Ceil(r.MaxX*n))
	y0, y1 := int(r.MinY*n), int(math.Ceil(r.MaxY*n))
	out := make([]TileKey, 0, (x1-x0)*(y1-y0))
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			out = append(out, TileKey{Z: z, X: x, Y: y})
		}
	}
	return out
}

// Config parameterizes a map cloudlet.
type Config struct {
	// FlashBudget bounds the provisioned pyramid plus the roaming LRU.
	FlashBudget int64
	// RoamBudget is the slice of the budget reserved for tiles fetched
	// outside the provisioned region.
	RoamBudget int64
	// BaseZoom is provisioned worldwide (coarse overview maps).
	BaseZoom int
	// MaxZoom caps the pyramid depth.
	MaxZoom int
}

// DefaultConfig sizes the cloudlet at the paper's Table 2 budget.
func DefaultConfig() Config {
	return Config{
		FlashBudget: 25_600_000_000, // 25.6 GB
		RoamBudget:  64 << 20,
		BaseZoom:    7,
		MaxZoom:     17,
	}
}

// Stats counts serving activity.
type Stats struct {
	TileRequests int
	TileHits     int
	RadioTiles   int
	RadioBytes   int64
}

// HitRate is the fraction of tile requests served from flash.
func (s Stats) HitRate() float64 {
	if s.TileRequests == 0 {
		return 0
	}
	return float64(s.TileHits) / float64(s.TileRequests)
}

// Cache is the on-device map cloudlet.
type Cache struct {
	dev *device.Device
	cfg Config
	// home is the provisioned region and the deepest zoom the budget
	// affords for it.
	home     Region
	homeZoom int
	// provisionedBytes is the pyramid's flash usage.
	provisionedBytes int64
	// roam holds out-of-region tiles under an LRU budget.
	roam      map[TileKey]int64 // key -> last-use tick
	roamBytes int64
	tick      int64
	stats     Stats
}

// New creates a map cloudlet. Zero config fields take defaults.
func New(dev *device.Device, cfg Config) (*Cache, error) {
	if dev == nil {
		return nil, fmt.Errorf("maplet: device is required")
	}
	def := DefaultConfig()
	if cfg.FlashBudget <= 0 {
		cfg.FlashBudget = def.FlashBudget
	}
	if cfg.RoamBudget <= 0 {
		cfg.RoamBudget = def.RoamBudget
	}
	if cfg.RoamBudget > cfg.FlashBudget {
		return nil, fmt.Errorf("maplet: roam budget %d exceeds flash budget %d", cfg.RoamBudget, cfg.FlashBudget)
	}
	if cfg.BaseZoom <= 0 {
		cfg.BaseZoom = def.BaseZoom
	}
	if cfg.MaxZoom <= 0 {
		cfg.MaxZoom = def.MaxZoom
	}
	if cfg.MaxZoom < cfg.BaseZoom {
		return nil, fmt.Errorf("maplet: invalid zoom range [%d, %d]", cfg.BaseZoom, cfg.MaxZoom)
	}
	return &Cache{dev: dev, cfg: cfg, roam: make(map[TileKey]int64)}, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// HomeZoom reports the deepest provisioned zoom level of the home
// region (zero before provisioning).
func (c *Cache) HomeZoom() int { return c.homeZoom }

// ProvisionedBytes reports the pyramid's flash usage.
func (c *Cache) ProvisionedBytes() int64 { return c.provisionedBytes }

// ProvisionHome installs the tile pyramid for the user's region: every
// zoom from BaseZoom down to the deepest level that fits in the budget
// (minus the roaming reserve). It models the overnight bulk transfer —
// flash write time only — and returns the chosen deepest zoom.
func (c *Cache) ProvisionHome(home Region) (int, error) {
	if home.MaxX <= home.MinX || home.MaxY <= home.MinY {
		return 0, fmt.Errorf("maplet: empty region %+v", home)
	}
	budget := c.cfg.FlashBudget - c.cfg.RoamBudget
	var bytes int64
	zoom := c.cfg.BaseZoom - 1
	for z := c.cfg.BaseZoom; z <= c.cfg.MaxZoom; z++ {
		var level int64
		if z == c.cfg.BaseZoom {
			// The base zoom is provisioned worldwide.
			n := int64(1) << uint(z)
			level = n * n * TileBytes
		} else {
			level = home.TileCount(z) * TileBytes
		}
		if bytes+level > budget {
			break
		}
		bytes += level
		zoom = z
	}
	if zoom < c.cfg.BaseZoom {
		return 0, fmt.Errorf("maplet: budget %d cannot hold even the base zoom", budget)
	}
	c.home = home
	c.homeZoom = zoom
	c.provisionedBytes = bytes
	// The bulk write happens while charging; charge flash time only.
	c.dev.Busy(c.dev.Flash().WriteCost(int(min64(bytes, 1<<30))), device.Store)
	return zoom, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// provisioned reports whether a tile is part of the home pyramid.
func (c *Cache) provisioned(k TileKey) bool {
	if c.homeZoom < c.cfg.BaseZoom {
		return false
	}
	if k.Z == c.cfg.BaseZoom {
		return true // base zoom covers the world
	}
	if k.Z < c.cfg.BaseZoom || k.Z > c.homeZoom {
		return false
	}
	// The tile is provisioned when its cell intersects the home region.
	n := float64(int(1) << uint(k.Z))
	x0, x1 := float64(k.X)/n, float64(k.X+1)/n
	y0, y1 := float64(k.Y)/n, float64(k.Y+1)/n
	return x0 < c.home.MaxX && x1 > c.home.MinX && y0 < c.home.MaxY && y1 > c.home.MinY
}

// Viewport serves a w x h tile view centered on the normalized point
// (x, y) at a zoom level. Cached tiles are read from flash; the rest
// are fetched in one radio request and admitted to the roaming LRU.
// It returns how many of the view's tiles were served locally.
func (c *Cache) Viewport(x, y float64, z, w, h int) (local, total int, err error) {
	if z < 0 || z > c.cfg.MaxZoom || w <= 0 || h <= 0 {
		return 0, 0, fmt.Errorf("maplet: bad viewport z=%d w=%d h=%d", z, w, h)
	}
	c.tick++
	center := TileAt(x, y, z)
	n := 1 << uint(z)
	var missing int
	for dy := -h / 2; dy <= (h-1)/2; dy++ {
		for dx := -w / 2; dx <= (w-1)/2; dx++ {
			k := TileKey{Z: z, X: wrap(center.X+dx, n), Y: wrap(center.Y+dy, n)}
			total++
			c.stats.TileRequests++
			if c.provisioned(k) {
				c.stats.TileHits++
				local++
				c.dev.Busy(c.dev.Flash().ReadCost(TileBytes), device.Fetch)
				continue
			}
			if _, ok := c.roam[k]; ok {
				c.roam[k] = c.tick
				c.stats.TileHits++
				local++
				c.dev.Busy(c.dev.Flash().ReadCost(TileBytes), device.Fetch)
				continue
			}
			missing++
			c.admitRoam(k)
		}
	}
	if missing > 0 {
		// One request fetches all missing tiles of the view.
		c.dev.NetworkRequest(400, missing*TileBytes)
		c.stats.RadioTiles += missing
		c.stats.RadioBytes += int64(missing) * TileBytes
	}
	return local, total, nil
}

func wrap(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// admitRoam inserts a fetched tile into the roaming LRU.
func (c *Cache) admitRoam(k TileKey) {
	for c.roamBytes+TileBytes > c.cfg.RoamBudget && len(c.roam) > 0 {
		var victim TileKey
		var oldest int64
		first := true
		for rk, used := range c.roam {
			if first || used < oldest || (used == oldest && less(rk, victim)) {
				victim, oldest, first = rk, used, false
			}
		}
		delete(c.roam, victim)
		c.roamBytes -= TileBytes
	}
	if c.roamBytes+TileBytes <= c.cfg.RoamBudget {
		c.roam[k] = c.tick
		c.roamBytes += TileBytes
		c.dev.Busy(c.dev.Flash().WriteCost(TileBytes), device.Store)
	}
}

func less(a, b TileKey) bool {
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// RoamTiles reports the roaming LRU's current size in tiles.
func (c *Cache) RoamTiles() int { return len(c.roam) }

// StateRegionTiles is the Table 2 cross-check: the number of 300x300 m
// tiles needed to cover an area of the given square kilometres.
func StateRegionTiles(areaKm2 float64) int64 {
	const tileAreaKm2 = 0.3 * 0.3
	return int64(math.Ceil(areaKm2 / tileAreaKm2))
}
