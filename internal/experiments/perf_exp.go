package experiments

import (
	"fmt"
	"time"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
)

// perfProbe builds a device + preloaded cache and replays cached
// queries, mirroring the paper's measurement protocol: 100 randomly
// selected cached queries, each submitted repeatedly, averaged.
const (
	perfQueries = 100
	perfRepeats = 10
)

// servePath identifies how queries are served in Figures 15-16.
type servePath int

const (
	pathPocketSearch servePath = iota
	path3G
	pathEDGE
	pathWiFi
)

func (p servePath) String() string {
	switch p {
	case pathPocketSearch:
		return "PocketSearch"
	case path3G:
		return "3G"
	case pathEDGE:
		return "Edge"
	default:
		return "802.11g"
	}
}

func (p servePath) radio() radio.Params {
	switch p {
	case pathEDGE:
		return radio.EDGE()
	case pathWiFi:
		return radio.WiFi()
	default:
		return radio.ThreeG()
	}
}

// newServeCache builds a fresh device and cache preloaded with the
// evaluation content over the given radio.
func newServeCache(l *Lab, p servePath) (*device.Device, *pocketsearch.Cache) {
	dev := device.New(device.Config{}, p.radio(), flashsim.Params{})
	cache, err := pocketsearch.Build(dev, l.Engine(), l.Content(0, EvalShare), pocketsearch.Options{})
	if err != nil {
		panic(fmt.Sprintf("experiments: cache build: %v", err))
	}
	dev.Reset()
	return dev, cache
}

// probePairs picks cached pairs to query, spread across the content.
func probePairs(l *Lab, n int) []searchlog.PairID {
	content := l.Content(0, EvalShare)
	pairs := make([]searchlog.PairID, 0, n)
	if len(content.Triplets) == 0 {
		return pairs
	}
	step := len(content.Triplets) / n
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(content.Triplets) && len(pairs) < n; i += step {
		pairs = append(pairs, content.Triplets[i].Pair)
	}
	return pairs
}

// measureServe runs the perf protocol over one serving path and
// returns the mean response time and mean per-query energy.
//
// On the radio paths, each submission starts from an idle radio (the
// paper measured isolated query submissions, paying the wake-up every
// time); Figure 16 separately measures the back-to-back case.
func measureServe(l *Lab, p servePath) (time.Duration, float64) {
	u := l.Universe()
	var totalTime time.Duration
	var totalEnergy float64
	n := 0
	dev, cache := newServeCache(l, p)
	for _, pair := range probePairs(l, perfQueries) {
		q := u.QueryText(u.QueryOf(pair))
		url := u.ResultURL(u.ResultOf(pair))
		for rep := 0; rep < perfRepeats; rep++ {
			before := dev.TotalEnergy()
			var out pocketsearch.Outcome
			var err error
			if p == pathPocketSearch {
				out, err = cache.Query(q, url)
				if err != nil {
					panic(err)
				}
				if !out.Hit {
					continue // probe landed on an evicted alias; skip
				}
			} else {
				// Force the network path: serve the same query via
				// the engine over the radio, render, account misc —
				// exactly the miss path's cost structure.
				resp, _ := l.Engine().Search(q)
				pageBytes := resp.PageBytes
				if pageBytes == 0 {
					pageBytes = 100_000
				}
				w := dev.Window(&out.Stages)
				w.NetworkRequest(800, pageBytes)
				w.Render(pageBytes)
				w.Misc()
			}
			totalTime += out.ResponseTime()
			totalEnergy += dev.TotalEnergy() - before
			if p != pathPocketSearch {
				// Demote the radio to idle before the next isolated
				// submission; the demotion window is not part of the
				// query's energy bill.
				dev.Link().Advance(p.radio().TailDuration + time.Second)
			}
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return totalTime / time.Duration(n), totalEnergy / float64(n)
}

// Table4Result carries the cache-hit response time breakdown.
type Table4Result struct {
	Lookup, Fetch, Render, Misc, Total time.Duration
}

// Table4 measures the mean hit-path breakdown over the perf protocol:
// the hits' stages, averaged.
func Table4(l *Lab) Table4Result {
	u := l.Universe()
	_, cache := newServeCache(l, pathPocketSearch)
	var sum device.Stages
	n := 0
	for _, pair := range probePairs(l, perfQueries) {
		q := u.QueryText(u.QueryOf(pair))
		url := u.ResultURL(u.ResultOf(pair))
		out, err := cache.Query(q, url)
		if err != nil {
			panic(err)
		}
		if !out.Hit {
			continue
		}
		sum.Add(&out.Stages)
		n++
	}
	var r Table4Result
	if n > 0 {
		d := time.Duration(n)
		r = Table4Result{Lookup: sum[device.Lookup] / d, Fetch: sum[device.Fetch] / d,
			Render: sum[device.Render] / d, Misc: sum[device.Misc] / d}
	}
	r.Total = r.Lookup + r.Fetch + r.Render + r.Misc
	return r
}

// Table renders the breakdown.
func (r Table4Result) Table() Table {
	t := Table{
		ID:      "Table 4",
		Title:   "PocketSearch user response time breakdown (cache hit)",
		Columns: []string{"operation", "average time", "percentage"},
		Notes:   []string{"paper: 0.01 ms lookup / 10 ms fetch / 361 ms render / 7 ms misc = 378 ms total"},
	}
	row := func(name string, d time.Duration) {
		pct := 0.0
		if r.Total > 0 {
			pct = float64(d) / float64(r.Total)
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.2f ms", ms(d)), percent(pct)})
	}
	row("Hash Table Lookup", r.Lookup)
	row("Fetch Search Results", r.Fetch)
	row("Browser Rendering", r.Render)
	row("Miscellaneous", r.Misc)
	t.Rows = append(t.Rows, []string{"Total", fmt.Sprintf("%.2f ms", ms(r.Total)), "100%"})
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Fig15Result carries per-path response time and energy.
type Fig15Result struct {
	Paths  []string
	Time   []time.Duration
	Energy []float64 // joules per query
}

// Fig15 measures average response time (15a) and energy (15b) per
// query for PocketSearch and each radio.
func Fig15(l *Lab) Fig15Result {
	var r Fig15Result
	for _, p := range []servePath{pathPocketSearch, path3G, pathEDGE, pathWiFi} {
		t, e := measureServe(l, p)
		r.Paths = append(r.Paths, p.String())
		r.Time = append(r.Time, t)
		r.Energy = append(r.Energy, e)
	}
	return r
}

// Speedup returns the response-time ratio of a path over PocketSearch.
func (r Fig15Result) Speedup(path string) float64 {
	var base, target time.Duration
	for i, p := range r.Paths {
		if p == "PocketSearch" {
			base = r.Time[i]
		}
		if p == path {
			target = r.Time[i]
		}
	}
	if base == 0 {
		return 0
	}
	return float64(target) / float64(base)
}

// EnergyRatio returns the energy ratio of a path over PocketSearch.
func (r Fig15Result) EnergyRatio(path string) float64 {
	var base, target float64
	for i, p := range r.Paths {
		if p == "PocketSearch" {
			base = r.Energy[i]
		}
		if p == path {
			target = r.Energy[i]
		}
	}
	if base == 0 {
		return 0
	}
	return target / base
}

// TableTime renders Figure 15a.
func (r Fig15Result) TableTime() Table {
	t := Table{
		ID:      "Figure 15a",
		Title:   "Average search user response time per query",
		Columns: []string{"serving path", "response time", "vs PocketSearch"},
		Notes:   []string{"paper: PocketSearch is 16x faster than 3G, 25x than Edge, 7x than 802.11g"},
	}
	for i, p := range r.Paths {
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%.0f ms", ms(r.Time[i])),
			fmt.Sprintf("%.1fx", r.Speedup(p)),
		})
	}
	return t
}

// TableEnergy renders Figure 15b.
func (r Fig15Result) TableEnergy() Table {
	t := Table{
		ID:      "Figure 15b",
		Title:   "Average energy per query",
		Columns: []string{"serving path", "energy", "vs PocketSearch"},
		Notes:   []string{"paper: PocketSearch is 23x more energy efficient than 3G, 41x than Edge, 11x than 802.11g"},
	}
	for i, p := range r.Paths {
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%.2f J", r.Energy[i]),
			fmt.Sprintf("%.1fx", r.EnergyRatio(p)),
		})
	}
	return t
}

// Fig16Result carries the ten-consecutive-queries comparison.
type Fig16Result struct {
	// PocketTotal and RadioTotal are end-to-end times for ten
	// back-to-back queries served locally vs over 3G.
	PocketTotal, RadioTotal time.Duration
	// PocketEnergy and RadioEnergy are the corresponding joules.
	PocketEnergy, RadioEnergy float64
	// PocketTrace and RadioTrace are the device power traces.
	PocketTrace, RadioTrace []device.PowerSegment
}

// Fig16 serves ten consecutive queries through the cache and through
// 3G, recording the device power trace of each run.
func Fig16(l *Lab) Fig16Result {
	u := l.Universe()
	pairs := probePairs(l, 10)
	run := func(local bool) (time.Duration, float64, []device.PowerSegment) {
		dev, cache := newServeCache(l, path3G)
		dev.StartTrace()
		for _, pair := range pairs {
			q := u.QueryText(u.QueryOf(pair))
			url := u.ResultURL(u.ResultOf(pair))
			if local {
				if _, err := cache.Query(q, url); err != nil {
					panic(err)
				}
			} else {
				resp, _ := l.Engine().Search(q)
				pageBytes := resp.PageBytes
				if pageBytes == 0 {
					pageBytes = 100_000
				}
				dev.NetworkRequest(800, pageBytes)
				dev.Render(pageBytes)
				dev.Misc()
			}
		}
		return dev.Now(), dev.TotalEnergy(), dev.Trace()
	}
	var r Fig16Result
	r.PocketTotal, r.PocketEnergy, r.PocketTrace = run(true)
	r.RadioTotal, r.RadioEnergy, r.RadioTrace = run(false)
	return r
}

// Table renders the comparison.
func (r Fig16Result) Table() Table {
	t := Table{
		ID:      "Figure 16",
		Title:   "Ten consecutive queries: PocketSearch vs 3G",
		Columns: []string{"path", "total time", "energy", "mean power", "peak power"},
		Notes: []string{
			"paper: ~4 s at ~900 mW locally vs ~40 s at ~1500 mW over 3G",
			"back-to-back 3G queries after the first skip the radio wake-up (warm tail)",
		},
	}
	row := func(name string, total time.Duration, energy float64, trace []device.PowerSegment) {
		peak := 0.0
		for _, seg := range trace {
			if seg.Watts > peak {
				peak = seg.Watts
			}
		}
		mean := 0.0
		if total > 0 {
			mean = energy / total.Seconds()
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f s", total.Seconds()),
			fmt.Sprintf("%.1f J", energy),
			fmt.Sprintf("%.0f mW", 1000*mean),
			fmt.Sprintf("%.0f mW", 1000*peak),
		})
	}
	row("PocketSearch", r.PocketTotal, r.PocketEnergy, r.PocketTrace)
	row("3G", r.RadioTotal, r.RadioEnergy, r.RadioTrace)
	return t
}

// Table5Result carries the navigation response times.
type Table5Result struct {
	// SearchLocal and Search3G are the measured search times.
	SearchLocal, Search3G time.Duration
	// Pages maps page kind to load time.
	Pages []Table5Page
}

// Table5Page is one page class of Table 5.
type Table5Page struct {
	Name     string
	LoadTime time.Duration
	// Local and Radio are total navigation times (search + load).
	Local, Radio time.Duration
	Speedup      float64
}

// Table5 computes navigation user response time — search plus webpage
// download — for the paper's lightweight (15 s) and heavyweight (30 s)
// pages.
func Table5(l *Lab) Table5Result {
	local, _ := measureServe(l, pathPocketSearch)
	over3G, _ := measureServe(l, path3G)
	r := Table5Result{SearchLocal: local, Search3G: over3G}
	for _, page := range []struct {
		name string
		load time.Duration
	}{
		{"Lightweight Page", 15 * time.Second},
		{"Heavyweight Page", 30 * time.Second},
	} {
		p := Table5Page{Name: page.name, LoadTime: page.load}
		p.Local = local + page.load
		p.Radio = over3G + page.load
		p.Speedup = float64(p.Radio-p.Local) / float64(p.Radio)
		r.Pages = append(r.Pages, p)
	}
	return r
}

// Table renders the navigation times.
func (r Table5Result) Table() Table {
	t := Table{
		ID:      "Table 5",
		Title:   "Navigation user response time (search + page load)",
		Columns: []string{"page", "PocketSearch", "3G", "speedup over 3G"},
		Notes:   []string{"paper: 15.378 s vs 21.048 s (28.7%) and 30.378 s vs 36.048 s (16.7%)"},
	}
	for _, p := range r.Pages {
		t.Rows = append(t.Rows, []string{
			p.Name,
			fmt.Sprintf("%.3f s", p.Local.Seconds()),
			fmt.Sprintf("%.3f s", p.Radio.Seconds()),
			percent(p.Speedup),
		})
	}
	return t
}
