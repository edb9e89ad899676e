package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/searchlog"
)

// refUserStream is UserStream as it was before the streamer: a fresh
// source and fresh buffers per call, times ordered by sort.Slice. Kept as
// the oracle a reseeded, buffer-reusing streamer must reproduce.
func refUserStream(g *Generator, u UserProfile, month int) []searchlog.Entry {
	rng := rand.New(rand.NewSource(g.userSeed(u.ID, month)))
	spec := g.classSpec(u.Class)
	lo, hi := float64(spec.MinMonthly), float64(spec.MaxMonthly)
	v := int(lo * math.Pow(hi/lo, rng.Float64()))
	if v < spec.MinMonthly {
		v = spec.MinMonthly
	}
	if v >= spec.MaxMonthly {
		v = spec.MaxMonthly - 1
	}
	times := make([]time.Duration, v)
	for i := range times {
		times[i] = time.Duration(rng.Int63n(int64(g.cfg.Window)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

	entries := make([]searchlog.Entry, 0, v)
	history := make([]searchlog.PairID, 0, v)
	for i := 0; i < v; i++ {
		var pair searchlog.PairID
		canRepeat := len(history) > 0 || len(u.Favorites) > 0
		if canRepeat && rng.Float64() < u.RepeatPropensity {
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
		entries = append(entries, searchlog.Entry{At: times[i], User: u.ID, Pair: pair, Device: u.Device})
	}
	return entries
}

// refMonthLog is MonthLog as it was: one goroutine appending every
// user's stream, then sort.Slice.
func refMonthLog(g *Generator, month int) []searchlog.Entry {
	var all []searchlog.Entry
	for _, u := range g.users {
		all = append(all, refUserStream(g, u, month)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// TestMonthLogMatchesSerial holds the fanned-out, reflection-free
// MonthLog to the serial reference entry for entry, at widths below, at
// and above this machine's, and on a window so short that most entries
// tie on At — where the order is whatever the unstable sort leaves, and
// has to be what sort.Slice left.
func TestMonthLogMatchesSerial(t *testing.T) {
	u := engine.MustUniverse(engine.DefaultConfig())
	cases := []struct {
		name   string
		seed   int64
		users  int
		window time.Duration
	}{
		{"seed1", 1, 5000, 0},
		{"seed7", 7, 5000, 0},
		{"ties", 3, 400, 64},
	}
	for _, c := range cases {
		cfg := DefaultConfig(u, c.users, c.seed)
		if c.window > 0 {
			cfg.Window = c.window
		}
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refMonthLog(g, 1)
		if c.window > 0 {
			ties := 0
			for i := 1; i < len(want); i++ {
				if want[i].At == want[i-1].At {
					ties++
				}
			}
			if ties < len(want)/2 {
				t.Fatalf("%s: only %d of %d entries tie; the case does not force ties", c.name, ties, len(want))
			}
		}
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs%d", c.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got := g.MonthLog(1)
				if got.Window != cfg.Window {
					t.Fatalf("window %v, want %v", got.Window, cfg.Window)
				}
				if !slices.Equal(got.Entries, want) {
					for i := range want {
						if i >= len(got.Entries) || got.Entries[i] != want[i] {
							t.Fatalf("entry %d of %d/%d differs from the serial log", i, len(got.Entries), len(want))
						}
					}
					t.Fatalf("%d entries, serial log has %d", len(got.Entries), len(want))
				}
			})
		}
	}
}

// BenchmarkMonthLog builds the repository benchmark's month log: 5,000
// users, ~300k entries.
func BenchmarkMonthLog(b *testing.B) {
	g := defaultGen(b, 5000)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(g.MonthLog(1).Entries)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/entry")
}

// TestByTimeMatchesSort holds byTime to the sort it stands in for on
// each of its paths: the bucket pass over distinct uniform times, a tie,
// and times bunched into one bucket so the insertion pass gives up.
func TestByTimeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const window = time.Duration(1 << 40)
	draw := func(n int, at func(i int) time.Duration) [][]searchlog.Entry {
		streams := make([][]searchlog.Entry, 7)
		for i := 0; i < n; i++ {
			s := rng.Intn(len(streams))
			streams[s] = append(streams[s], searchlog.Entry{At: at(i), User: searchlog.UserID(s), Pair: searchlog.PairID(i)})
		}
		return streams
	}
	for _, c := range []struct {
		name    string
		streams [][]searchlog.Entry
	}{
		{"uniform", draw(20_000, func(int) time.Duration { return time.Duration(rng.Int63n(int64(window))) })},
		{"tie", draw(20_000, func(i int) time.Duration { return time.Duration(i%19_999) * (window / 20_000) })},
		{"bunched", draw(2_000, func(i int) time.Duration { return time.Duration(5_000 - i) })},
		{"empty", nil},
	} {
		want := slices.Concat(c.streams...)
		slices.SortFunc(want, func(a, b searchlog.Entry) int { return cmp.Compare(a.At, b.At) })
		if got := byTime(c.streams, window); !slices.Equal(got, want) {
			t.Errorf("%s: byTime differs from slices.SortFunc", c.name)
		}
	}
}
