// Package replay implements the Section 6.2 evaluation harness: it
// replays per-user query streams from one month against a PocketSearch
// cache built from the preceding month's community logs, and measures
// hit rates per user class under the full, community-only and
// personalization-only configurations (Figures 17-19), by week
// (Figure 18), and with daily cache updates (Section 6.2.2).
package replay

import (
	"fmt"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/updater"
	"pocketcloudlets/internal/workload"
)

// Mode selects the cache configuration of Figure 17.
type Mode int

const (
	// Full uses both the community preload and personalization.
	Full Mode = iota
	// CommunityOnly preloads the community content but never expands
	// or re-ranks.
	CommunityOnly
	// PersonalizationOnly starts empty and relies on repeats.
	PersonalizationOnly
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Full:
		return "full"
	case CommunityOnly:
		return "community-only"
	case PersonalizationOnly:
		return "personalization-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists the three Figure 17 configurations.
func Modes() []Mode { return []Mode{Full, CommunityOnly, PersonalizationOnly} }

// Config parameterizes a replay run.
type Config struct {
	// Gen supplies users and their monthly streams.
	Gen *workload.Generator
	// Content is the community cache content built from the
	// preceding month.
	Content cachegen.Content
	// Mode selects the Figure 17 configuration.
	Mode Mode
	// UsersPerClass caps how many users of each class are replayed
	// (the paper samples 100). Zero means all.
	UsersPerClass int
	// Month is the generator month index to replay (the paper uses
	// the month after the one the cache was built from).
	Month int
	// Weeks is the number of weekly buckets to track (Figure 18).
	// Zero selects 5 (a 30-day month spans 4 full weeks plus spill).
	Weeks int
	// DailyContent, when non-nil, enables the Section 6.2.2 daily
	// update experiment: at each day boundary the cache runs a full
	// Section 5.4 server synchronization against the content for that
	// day. This exercises the complete updater path and suits small
	// populations.
	DailyContent func(day int) cachegen.Content
	// DailyDelta, when non-nil, applies incremental daily updates
	// instead: only the pairs that entered or left the popular set are
	// installed or pruned. This is how the server would ship patches
	// in steady state, and it scales to the full Figure 17 population.
	// Mutually exclusive with DailyContent.
	DailyDelta func(day int) Delta
}

// Delta is one day's incremental community update.
type Delta struct {
	// Add holds the pairs that entered the popular set, with scores.
	Add cachegen.Content
	// Remove lists pairs that left the popular set; they are pruned
	// unless the user has accessed them (Section 5.4's policy).
	Remove []searchlog.PairID
}

// UserOutcome is one replayed user's result.
type UserOutcome struct {
	Profile     workload.UserProfile
	Volume      int
	Hits        int
	NavHits     int
	NonNavHits  int
	WeekVolume  []int
	WeekHits    []int
	RespTimeSum time.Duration
	Energy      float64
}

// NewUserOutcome prepares an outcome accumulator for one user over the
// given number of weekly buckets.
func NewUserOutcome(up workload.UserProfile, weeks int) UserOutcome {
	if weeks <= 0 {
		weeks = 5
	}
	return UserOutcome{
		Profile:    up,
		WeekVolume: make([]int, weeks),
		WeekHits:   make([]int, weeks),
	}
}

// Record accumulates one served query into the outcome: volume, the
// weekly buckets of Figure 18, response time, and the navigational hit
// split of Figure 19. at is the query's offset within its month and
// nav reports whether the pair is navigational.
func (uo *UserOutcome) Record(at time.Duration, nav bool, out pocketsearch.Outcome) {
	weeks := len(uo.WeekVolume)
	w := int(at / (7 * 24 * time.Hour))
	if w >= weeks {
		w = weeks - 1
	}
	if w < 0 {
		w = 0
	}
	uo.Volume++
	uo.WeekVolume[w]++
	uo.RespTimeSum += out.ResponseTime()
	if out.Hit {
		uo.Hits++
		uo.WeekHits[w]++
		if nav {
			uo.NavHits++
		} else {
			uo.NonNavHits++
		}
	}
}

// HitRate is the user's overall hit rate.
func (u UserOutcome) HitRate() float64 {
	if u.Volume == 0 {
		return 0
	}
	return float64(u.Hits) / float64(u.Volume)
}

// ClassResult aggregates outcomes per user class.
type ClassResult struct {
	Class    workload.Class
	Users    int
	HitRate  float64 // mean of per-user hit rates (the paper averages users)
	NavShare float64 // fraction of hits that are navigational (Figure 19)
	// WeekHitRate[w] is the mean per-user hit rate within week w.
	WeekHitRate []float64
	// CumWeekHitRate[w] is the mean per-user hit rate over weeks 0..w
	// (Figure 18 reports "first week" and "first two weeks").
	CumWeekHitRate []float64
}

// Result is a full replay outcome.
type Result struct {
	Mode    Mode
	Classes []ClassResult
	Users   []UserOutcome
}

// Average returns the mean per-user hit rate across all replayed users
// (the paper's "on average, 65% of the queries ... are cache hits").
func (r Result) Average() float64 {
	if len(r.Users) == 0 {
		return 0
	}
	var sum float64
	for _, u := range r.Users {
		sum += u.HitRate()
	}
	return sum / float64(len(r.Users))
}

// ClassRate returns the mean hit rate of one class.
func (r Result) ClassRate(c workload.Class) float64 {
	for _, cr := range r.Classes {
		if cr.Class == c {
			return cr.HitRate
		}
	}
	return 0
}

// Run executes the replay.
func Run(cfg Config) (Result, error) {
	if cfg.Gen == nil {
		return Result{}, fmt.Errorf("replay: generator is required")
	}
	weeks := cfg.Weeks
	if weeks <= 0 {
		weeks = 5
	}
	res := Result{Mode: cfg.Mode}
	for _, class := range workload.Classes() {
		users := cfg.Gen.UsersOfClass(class)
		if cfg.UsersPerClass > 0 && len(users) > cfg.UsersPerClass {
			users = users[:cfg.UsersPerClass]
		}
		cr := ClassResult{
			Class:          class,
			Users:          len(users),
			WeekHitRate:    make([]float64, weeks),
			CumWeekHitRate: make([]float64, weeks),
		}
		weekRateSum := make([]float64, weeks)
		weekRateN := make([]int, weeks)
		cumRateSum := make([]float64, weeks)
		cumRateN := make([]int, weeks)
		var rateSum, navShareSum float64
		var navShareN int
		for _, up := range users {
			uo, err := replayUser(cfg, up, weeks)
			if err != nil {
				return Result{}, err
			}
			res.Users = append(res.Users, uo)
			rateSum += uo.HitRate()
			if uo.Hits > 0 {
				navShareSum += float64(uo.NavHits) / float64(uo.Hits)
				navShareN++
			}
			cumV, cumH := 0, 0
			for w := 0; w < weeks; w++ {
				if uo.WeekVolume[w] > 0 {
					weekRateSum[w] += float64(uo.WeekHits[w]) / float64(uo.WeekVolume[w])
					weekRateN[w]++
				}
				cumV += uo.WeekVolume[w]
				cumH += uo.WeekHits[w]
				if cumV > 0 {
					cumRateSum[w] += float64(cumH) / float64(cumV)
					cumRateN[w]++
				}
			}
		}
		if len(users) > 0 {
			cr.HitRate = rateSum / float64(len(users))
		}
		if navShareN > 0 {
			cr.NavShare = navShareSum / float64(navShareN)
		}
		for w := 0; w < weeks; w++ {
			if weekRateN[w] > 0 {
				cr.WeekHitRate[w] = weekRateSum[w] / float64(weekRateN[w])
			}
			if cumRateN[w] > 0 {
				cr.CumWeekHitRate[w] = cumRateSum[w] / float64(cumRateN[w])
			}
		}
		res.Classes = append(res.Classes, cr)
	}
	return res, nil
}

// replayUser runs one user's month against a fresh cache instance.
func replayUser(cfg Config, up workload.UserProfile, weeks int) (UserOutcome, error) {
	u := cfg.Gen.Config().Universe
	eng := engine.New(u)
	dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
	opts := pocketsearch.Options{DisablePersonalization: cfg.Mode == CommunityOnly}
	cache, err := pocketsearch.New(dev, eng, opts)
	if err != nil {
		return UserOutcome{}, err
	}
	if cfg.Mode != PersonalizationOnly {
		if err := cache.Preload(cfg.Content); err != nil {
			return UserOutcome{}, err
		}
	}
	dev.Reset()

	uo := NewUserOutcome(up, weeks)
	stream := cfg.Gen.UserStream(up, cfg.Month)
	day := 0
	for _, e := range stream {
		if cfg.DailyContent != nil || cfg.DailyDelta != nil {
			d := int(e.At / (24 * time.Hour))
			for day < d {
				day++
				if cfg.DailyContent != nil {
					upd, err := updater.BuildUpdate(cache.Table(), cfg.DailyContent(day), u, updater.DefaultPolicy())
					if err != nil {
						return UserOutcome{}, err
					}
					if _, err := updater.Apply(cache, upd); err != nil {
						return UserOutcome{}, err
					}
				} else {
					if err := applyDelta(cache, u, cfg.DailyDelta(day)); err != nil {
						return UserOutcome{}, err
					}
				}
			}
		}
		q := u.QueryText(u.QueryOf(e.Pair))
		url := u.ResultURL(u.ResultOf(e.Pair))
		out, err := cache.Query(q, url)
		if err != nil {
			return UserOutcome{}, err
		}
		uo.Record(e.At, u.Navigational(e.Pair), out)
	}
	uo.Energy = dev.TotalEnergy()
	return uo, nil
}

// applyDelta installs one day's incremental community update: new
// popular pairs are preloaded, dropped ones are pruned unless the user
// has accessed them.
func applyDelta(cache *pocketsearch.Cache, u *engine.Universe, d Delta) error {
	for _, p := range d.Remove {
		qh := hash64.Sum(u.QueryText(u.QueryOf(p)))
		rh := hash64.Sum(u.ResultURL(u.ResultOf(p)))
		if cache.Table().Accessed(qh, rh) {
			continue
		}
		cache.RemovePair(qh, rh)
	}
	if len(d.Add.Triplets) > 0 {
		return cache.Preload(d.Add)
	}
	return nil
}
