// Package workload generates synthetic mobile search logs that stand in
// for the 200 million m.bing.com queries the Pocket Cloudlets paper
// analyzed (Section 4). The generator is a per-user behavioural model
// whose parameters are calibrated so the aggregate statistics the paper
// reports emerge from the generated streams rather than being baked in:
//
//   - Community concentration (Figure 4): new queries are drawn from
//     bounded Zipf distributions over the navigational/non-navigational
//     pair spaces of internal/engine, with steeper exponents for
//     featurephone users (the paper's Figure 4 device split).
//   - Individual repeatability (Figure 5): each user has a repeat
//     propensity; a bimodal mixture (heavy repeaters vs. explorers)
//     reproduces the paper's skew — about half of users repeat at
//     least 70% of their queries while the population mean sits near
//     56.5%. Repeats re-draw from the user's own history, frequency
//     weighted, so personal favorites emerge (a Pólya urn).
//   - User classes (Table 6): monthly query volume is drawn
//     log-uniformly within each class's bracket; heavier classes have
//     higher repeat propensity and more diversified (less
//     navigational) query mixes, which reproduces the class trends of
//     Figures 17 and 19.
//
// Generation is deterministic given (Seed, user, month), so the same
// user can be materialized for consecutive months: the evaluation
// builds the cache from month 0 and replays month 1.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/zipf"
)

// Class is a Table 6 user class, determined by monthly query volume.
type Class int

const (
	// Low volume: [20, 40) queries per month — 55% of users.
	Low Class = iota
	// Medium volume: [40, 140) — 36% of users.
	Medium
	// High volume: [140, 460) — 8% of users.
	High
	// Extreme volume: [460, ∞) — 1% of users.
	Extreme
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case Extreme:
		return "extreme"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists every class in order.
func Classes() []Class { return []Class{Low, Medium, High, Extreme} }

// ClassSpec parameterizes one user class.
type ClassSpec struct {
	Class Class
	// MinMonthly and MaxMonthly bound the monthly query volume
	// (half-open bracket, Table 6).
	MinMonthly, MaxMonthly int
	// PopulationShare is the fraction of users in this class.
	PopulationShare float64
	// HeavyRepeaterFrac is the probability a user of this class is a
	// heavy repeater (repeat propensity drawn from the heavy band).
	HeavyRepeaterFrac float64
	// NavVolumeFrac is the probability a fresh draw is navigational.
	NavVolumeFrac float64
	// Favorites is how many persistent favorite pairs a user of this
	// class maintains. Favorites persist across months — the paper's
	// heavy users keep re-issuing the same queries month after month,
	// which both feeds those pairs into the community's popular set
	// and explains why community-only hit rates grow with volume
	// (Figure 17).
	Favorites int
}

// DefaultClasses returns the calibrated Table 6 classes. The Extreme
// bracket is capped at 1200 to keep generated streams bounded (the
// paper's bracket is open-ended).
func DefaultClasses() []ClassSpec {
	return []ClassSpec{
		{Class: Low, MinMonthly: 20, MaxMonthly: 40, PopulationShare: 0.55, HeavyRepeaterFrac: 0.57, NavVolumeFrac: 0.62, Favorites: 4},
		{Class: Medium, MinMonthly: 40, MaxMonthly: 140, PopulationShare: 0.36, HeavyRepeaterFrac: 0.67, NavVolumeFrac: 0.59, Favorites: 7},
		{Class: High, MinMonthly: 140, MaxMonthly: 460, PopulationShare: 0.08, HeavyRepeaterFrac: 0.72, NavVolumeFrac: 0.56, Favorites: 12},
		{Class: Extreme, MinMonthly: 460, MaxMonthly: 1200, PopulationShare: 0.01, HeavyRepeaterFrac: 0.76, NavVolumeFrac: 0.53, Favorites: 18},
	}
}

// Config parameterizes a generator.
type Config struct {
	// Universe supplies the pair spaces.
	Universe *engine.Universe
	// Seed drives all randomness; equal seeds reproduce equal logs.
	Seed int64
	// Users is the population size.
	Users int
	// Window is the log window length (a month).
	Window time.Duration
	// FeaturephoneFrac is the fraction of featurephone users.
	FeaturephoneFrac float64
	// Classes overrides DefaultClasses when non-nil.
	Classes []ClassSpec

	// Zipf exponents per (pair space, device). Featurephone values are
	// steeper: the paper found featurephone traffic more concentrated.
	NavExpSmart      float64
	NavExpFeature    float64
	NonNavExpSmart   float64
	NonNavExpFeature float64

	// Repeat-propensity bands for the bimodal mixture.
	HeavyRepeatMin, HeavyRepeatMax float64
	LightRepeatMin, LightRepeatMax float64

	// Favorite-pool structure. Popular favorites are drawn from the
	// top FavNavRanks/FavNonNavRanks of each space with exponents
	// FavNavExp/FavNonNavExp; NicheFavoriteFrac of favorites instead
	// come from the full fresh distribution.
	FavNavRanks       int
	FavNonNavRanks    int
	FavNavExp         float64
	FavNonNavExp      float64
	NicheFavoriteFrac float64

	// Trending models the temporal drift of real search traffic: each
	// day a few event queries spike community-wide and fade after a
	// few days (the paper's logs are from 2009 — "michael jackson" is
	// its running example of exactly such an event). Trending is what
	// makes the Section 6.2.2 daily cache updates pay off: a cache
	// built from last month's logs cannot contain this week's events.
	//
	// TrendingFrac is the probability a fresh draw is a trending
	// query; TrendingDailyEvents is how many new events start per day;
	// TrendingLifetimeDays is how long an event stays active. A zero
	// TrendingFrac disables drift entirely.
	TrendingFrac         float64
	TrendingDailyEvents  int
	TrendingLifetimeDays int
}

// favoriteBias is the probability a repeat re-issues one of the user's
// persistent favorites rather than redrawing from this month's
// history. Favorites dominate early in a month (history is empty) and
// remain the anchor of the user's repeat traffic.
const favoriteBias = 0.55

// CommunityUsers is the canonical population size at which the
// generator's aggregate statistics were calibrated against the paper's
// Figure 4/5 numbers. At this scale a month log holds ~1.5M entries;
// smaller populations over-concentrate the head because individual
// users' repeated favorites occupy a larger share of the top ranks.
const CommunityUsers = 20000

// DefaultConfig returns the calibrated configuration over the given
// universe. Users and Seed are the caller's choice; aggregate Figure 4
// shares match the paper when Users is near CommunityUsers.
func DefaultConfig(u *engine.Universe, users int, seed int64) Config {
	return Config{
		Universe:          u,
		Seed:              seed,
		Users:             users,
		Window:            30 * 24 * time.Hour,
		FeaturephoneFrac:  0.35,
		NavExpSmart:       0.90,
		NavExpFeature:     1.03,
		NonNavExpSmart:    0.40,
		NonNavExpFeature:  0.47,
		HeavyRepeatMin:    0.72,
		HeavyRepeatMax:    0.92,
		LightRepeatMin:    0.05,
		LightRepeatMax:    0.55,
		FavNavRanks:       8000,
		FavNonNavRanks:    40000,
		FavNavExp:         0.60,
		FavNonNavExp:      0.30,
		NicheFavoriteFrac: 0.15,

		TrendingFrac:         0.04,
		TrendingDailyEvents:  8,
		TrendingLifetimeDays: 4,
	}
}

// UserProfile is the persistent identity of one synthetic user.
type UserProfile struct {
	ID     searchlog.UserID
	Class  Class
	Device searchlog.DeviceClass
	// RepeatPropensity is the probability a query (after the first)
	// re-issues a pair from the user's history or favorites.
	RepeatPropensity float64
	// Favorites are the user's persistent favorite pairs, stable
	// across months.
	Favorites []searchlog.PairID
}

// Generator produces deterministic synthetic logs.
type Generator struct {
	cfg     Config
	classes []ClassSpec
	// Fresh-draw samplers indexed by [navigational][featurephone].
	dists [2][2]*zipf.Dist
	// Favorite samplers indexed by [navigational].
	favDists [2]*zipf.Dist
	users    []UserProfile
}

// New validates the configuration and precomputes the samplers and the
// user population.
func New(cfg Config) (*Generator, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("workload: Universe is required")
	}
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("workload: Users must be positive, got %d", cfg.Users)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("workload: Window must be positive, got %v", cfg.Window)
	}
	if cfg.FeaturephoneFrac < 0 || cfg.FeaturephoneFrac > 1 {
		return nil, fmt.Errorf("workload: FeaturephoneFrac %g outside [0,1]", cfg.FeaturephoneFrac)
	}
	g := &Generator{cfg: cfg, classes: cfg.Classes}
	if g.classes == nil {
		g.classes = DefaultClasses()
	}
	var share float64
	for _, c := range g.classes {
		if c.MinMonthly <= 0 || c.MaxMonthly <= c.MinMonthly {
			return nil, fmt.Errorf("workload: class %v has invalid bracket [%d, %d)", c.Class, c.MinMonthly, c.MaxMonthly)
		}
		share += c.PopulationShare
	}
	if share < 0.999 || share > 1.001 {
		return nil, fmt.Errorf("workload: class population shares sum to %g, want 1", share)
	}
	uc := cfg.Universe.Config()
	g.dists[1][0] = zipf.New(uc.NavPairs, cfg.NavExpSmart)
	g.dists[1][1] = zipf.New(uc.NavPairs, cfg.NavExpFeature)
	g.dists[0][0] = zipf.New(uc.NonNavPairs, cfg.NonNavExpSmart)
	g.dists[0][1] = zipf.New(uc.NonNavPairs, cfg.NonNavExpFeature)
	favNav := min(cfg.FavNavRanks, uc.NavPairs)
	if favNav <= 0 {
		favNav = uc.NavPairs
	}
	favNonNav := min(cfg.FavNonNavRanks, uc.NonNavPairs)
	if favNonNav <= 0 {
		favNonNav = uc.NonNavPairs
	}
	g.favDists[1] = zipf.New(favNav, cfg.FavNavExp)
	g.favDists[0] = zipf.New(favNonNav, cfg.FavNonNavExp)
	g.buildPopulation()
	return g, nil
}

// Config returns the generator configuration.
func (g *Generator) Config() Config { return g.cfg }

// Classes returns the class specifications in use.
func (g *Generator) Classes() []ClassSpec { return g.classes }

// classSpec returns the spec for a class.
func (g *Generator) classSpec(c Class) ClassSpec {
	for _, s := range g.classes {
		if s.Class == c {
			return s
		}
	}
	// Unreachable for validated configs; return a safe default.
	return g.classes[0]
}

func (g *Generator) buildPopulation() {
	rng := rand.New(rand.NewSource(g.cfg.Seed ^ 0x5EED_0001))
	g.users = make([]UserProfile, g.cfg.Users)
	for i := range g.users {
		u := &g.users[i]
		u.ID = searchlog.UserID(i)
		// Class by population share.
		x := rng.Float64()
		var acc float64
		u.Class = g.classes[len(g.classes)-1].Class
		for _, s := range g.classes {
			acc += s.PopulationShare
			if x < acc {
				u.Class = s.Class
				break
			}
		}
		if rng.Float64() < g.cfg.FeaturephoneFrac {
			u.Device = searchlog.Featurephone
		} else {
			u.Device = searchlog.Smartphone
		}
		spec := g.classSpec(u.Class)
		if rng.Float64() < spec.HeavyRepeaterFrac {
			u.RepeatPropensity = g.cfg.HeavyRepeatMin + rng.Float64()*(g.cfg.HeavyRepeatMax-g.cfg.HeavyRepeatMin)
		} else {
			u.RepeatPropensity = g.cfg.LightRepeatMin + rng.Float64()*(g.cfg.LightRepeatMax-g.cfg.LightRepeatMin)
		}
		u.Favorites = make([]searchlog.PairID, spec.Favorites)
		for f := range u.Favorites {
			u.Favorites[f] = g.drawFavorite(rng, spec, u.Device)
		}
	}
}

// drawFavorite samples a persistent favorite. With probability
// 1-NicheFavoriteFrac the favorite comes from the popular head (users'
// standing queries are mostly popular services — facebook, weather,
// stock quotes), which couples personal repeats to the community cache
// and produces the component overlap the paper measures in Figure 17.
// Otherwise it is a niche favorite from the full fresh distribution —
// the repeats only the personalization component can serve.
func (g *Generator) drawFavorite(rng *rand.Rand, spec ClassSpec, dc searchlog.DeviceClass) searchlog.PairID {
	if rng.Float64() < g.cfg.NicheFavoriteFrac {
		return g.drawFresh(rng, spec, dc)
	}
	if rng.Float64() < spec.NavVolumeFrac {
		return g.cfg.Universe.NavPair(g.favDists[1].Sample(rng))
	}
	return g.cfg.Universe.NonNavPair(g.favDists[0].Sample(rng))
}

// drawFresh samples a pair from the community distribution for the
// user's device and the class's navigational mix.
func (g *Generator) drawFresh(rng *rand.Rand, spec ClassSpec, dc searchlog.DeviceClass) searchlog.PairID {
	dev := 0
	if dc == searchlog.Featurephone {
		dev = 1
	}
	if rng.Float64() < spec.NavVolumeFrac {
		return g.cfg.Universe.NavPair(g.dists[1][dev].Sample(rng))
	}
	return g.cfg.Universe.NonNavPair(g.dists[0][dev].Sample(rng))
}

// Users returns the generated population. The slice is shared; callers
// must not modify it.
func (g *Generator) Users() []UserProfile { return g.users }

// UsersOfClass returns the profiles belonging to one class.
func (g *Generator) UsersOfClass(c Class) []UserProfile {
	var out []UserProfile
	for _, u := range g.users {
		if u.Class == c {
			out = append(out, u)
		}
	}
	return out
}

// userSeed derives the deterministic stream seed for (user, month),
// splitmix64-finalized for good bit diffusion.
func (g *Generator) userSeed(id searchlog.UserID, month int) int64 {
	return int64(hash64.Mix(uint64(g.cfg.Seed) ^ (uint64(id)+1)*0x9E3779B97F4A7C15 ^ (uint64(month)+1)*0xBF58476D1CE4E5B9))
}

// UserStream generates one user's query stream for the given month
// index, ordered by time within the window.
func (g *Generator) UserStream(u UserProfile, month int) []searchlog.Entry {
	return (&streamer{g: g}).stream(u, month)
}

// streamer is the scratch one goroutine draws user streams with, back
// to back: a source reseeded per (user, month) — a fresh source per user
// would be another 5 KB of garbage — and the time and history buffers. A
// stream is the same whichever streamer draws it.
type streamer struct {
	g       *Generator
	src     source
	rng     *rand.Rand // over src, made by the first stream
	times   []time.Duration
	history []searchlog.PairID
}

// stream draws one user's month into a slice of its own.
func (s *streamer) stream(u UserProfile, month int) []searchlog.Entry {
	g := s.g
	s.src.Seed(g.userSeed(u.ID, month))
	if s.rng == nil {
		s.rng = rand.New(&s.src)
	}
	rng := s.rng
	spec := g.classSpec(u.Class)

	// Monthly volume: log-uniform within the class bracket, redrawn
	// per month (activity fluctuates but the class is stable).
	lo, hi := float64(spec.MinMonthly), float64(spec.MaxMonthly)
	v := int(lo * math.Pow(hi/lo, rng.Float64()))
	if v < spec.MinMonthly {
		v = spec.MinMonthly
	}
	if v >= spec.MaxMonthly {
		v = spec.MaxMonthly - 1
	}

	// Times are drawn first and sorted so pair choices can depend on
	// when in the month the query happens (trending events are only
	// active for a few days).
	times := slices.Grow(s.times[:0], v)[:v]
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(g.cfg.Window)))
	}
	slices.Sort(times)

	entries := make([]searchlog.Entry, 0, v)
	history := slices.Grow(s.history[:0], v)
	for i := 0; i < v; i++ {
		var pair searchlog.PairID
		canRepeat := len(history) > 0 || len(u.Favorites) > 0
		if canRepeat && rng.Float64() < u.RepeatPropensity {
			// A repeat: from persistent favorites (which survive
			// month boundaries) or a frequency-weighted redraw from
			// this month's history.
			if len(u.Favorites) > 0 && (len(history) == 0 || rng.Float64() < favoriteBias) {
				pair = u.Favorites[rng.Intn(len(u.Favorites))]
			} else {
				pair = history[rng.Intn(len(history))]
			}
		} else if g.cfg.TrendingFrac > 0 && rng.Float64() < g.cfg.TrendingFrac {
			pair = g.drawTrending(rng, month, times[i])
		} else {
			pair = g.drawFresh(rng, spec, u.Device)
		}
		history = append(history, pair)
		entries = append(entries, searchlog.Entry{
			At:     times[i],
			User:   u.ID,
			Pair:   pair,
			Device: u.Device,
		})
	}
	s.times, s.history = times, history
	return entries
}

// Cursor walks one user's query stream in time order, materializing
// further months on demand, so a stream can drive an arrival process
// of arbitrary length (the fleet's closed-loop load generator keeps a
// cursor per simulated user). Cursors are deterministic: two cursors
// over the same (generator config, user, start month) yield identical
// entry sequences.
type Cursor struct {
	g       *Generator
	u       UserProfile
	month   int
	entries []searchlog.Entry
	i       int
}

// Cursor opens a stream cursor for the user starting at the given
// month index.
func (g *Generator) Cursor(u UserProfile, startMonth int) *Cursor {
	return &Cursor{g: g, u: u, month: startMonth, entries: g.UserStream(u, startMonth)}
}

// Month returns the month index the cursor is currently inside.
func (c *Cursor) Month() int { return c.month }

// User returns the profile the cursor walks.
func (c *Cursor) User() UserProfile { return c.u }

// Next returns the next entry of the stream and the month it belongs
// to, generating the following month when the current one is
// exhausted. Entry times are offsets within the returned month.
func (c *Cursor) Next() (searchlog.Entry, int) {
	for c.i >= len(c.entries) {
		c.month++
		c.entries = c.g.UserStream(c.u, c.month)
		c.i = 0
	}
	e := c.entries[c.i]
	c.i++
	return e, c.month
}

// TrendingPair returns the event pair for the k-th event starting on
// the given absolute day (month*30 + day). Events live in the deep
// non-navigational tail: trending topics are queries that were rare
// before their event.
func (g *Generator) TrendingPair(absDay, k int) searchlog.PairID {
	nn := g.cfg.Universe.Config().NonNavPairs
	tailStart := nn / 2
	x := uint64(g.cfg.Seed)*0x9E3779B97F4A7C15 ^ uint64(absDay)*0xBF58476D1CE4E5B9 ^ uint64(k)*0x94D049BB133111EB
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	rank := tailStart + int(x%uint64(nn-tailStart))
	return g.cfg.Universe.NonNavPair(rank)
}

// drawTrending picks among the events active at the entry's time:
// uniformly over the events started within the last lifetime days.
func (g *Generator) drawTrending(rng *rand.Rand, month int, at time.Duration) searchlog.PairID {
	absDay := month*30 + int(at/(24*time.Hour))
	life := g.cfg.TrendingLifetimeDays
	if life < 1 {
		life = 1
	}
	perDay := g.cfg.TrendingDailyEvents
	if perDay < 1 {
		perDay = 1
	}
	startDay := absDay - rng.Intn(life)
	if startDay < 0 {
		startDay = 0
	}
	return g.TrendingPair(startDay, rng.Intn(perDay))
}

// MonthLog generates the full community log for a month: every user's
// stream merged and ordered by time. The streams are independent draws,
// so contiguous blocks of users are drawn on GOMAXPROCS goroutines and
// laid end to end in user order before the one ordering (byTime); the
// log is the same at any width.
func (g *Generator) MonthLog(month int) searchlog.Log {
	streams := make([][]searchlog.Entry, len(g.users))
	workers := min(runtime.GOMAXPROCS(0), len(g.users))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(g.users)/workers, (w+1)*len(g.users)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &streamer{g: g}
			for i := lo; i < hi; i++ {
				streams[i] = s.stream(g.users[i], month)
			}
		}()
	}
	wg.Wait()
	return searchlog.Log{Window: g.cfg.Window, Entries: byTime(streams, g.cfg.Window)}
}

// byTime returns the streams' entries, laid end to end, ordered by At as
// slices.SortFunc leaves them. Every At lies in [0, window) and is a
// uniform draw, so a counting sort on At's high bits — about one bucket
// per entry — leaves each entry a few places from home, and an insertion
// pass finishes in linear time. The buckets are split in contiguous
// ranges over GOMAXPROCS goroutines, each placing and then ordering its
// own stretch. That order is the only one when no two entries tie;
// entries of equal At land where the standard library's
// pattern-defeating quicksort leaves them, so a tie (or an insertion
// pass that has moved more entries than its stretch holds) sorts the
// concatenation instead, as sort.Slice did before its generated twin.
func byTime(streams [][]searchlog.Entry, window time.Duration) []searchlog.Entry {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	shift := max(bits.Len64(uint64(window-1))-bits.Len(uint(n)), 0)
	buckets := int((window-1)>>shift) + 1
	next := make([]int, buckets+1)
	for _, s := range streams {
		for _, e := range s {
			next[e.At>>shift+1]++
		}
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	out := make([]searchlog.Entry, n)
	workers := min(runtime.GOMAXPROCS(0), buckets)
	var (
		wg   sync.WaitGroup
		ties atomic.Bool
	)
	for w := 0; w < workers; w++ {
		blo, bhi := time.Duration(w*buckets/workers), time.Duration((w+1)*buckets/workers)
		lo, hi := next[blo], next[bhi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range streams {
				for _, e := range s {
					if b := e.At >> shift; b >= blo && b < bhi {
						out[next[b]] = e
						next[b]++
					}
				}
			}
			moved := 0
			for i := lo + 1; i < hi; i++ {
				e, j := out[i], i
				for ; j > lo && out[j-1].At > e.At; j-- {
					out[j] = out[j-1]
				}
				out[j] = e
				if moved += i - j; (j > lo && out[j-1].At == e.At) || moved > hi-lo {
					ties.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ties.Load() {
		all := slices.Concat(streams...)
		slices.SortFunc(all, func(a, b searchlog.Entry) int { return cmp.Compare(a.At, b.At) })
		return all
	}
	return out
}
