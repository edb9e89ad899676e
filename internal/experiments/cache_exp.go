package experiments

import (
	"fmt"
	"math"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/resultdb"
	"pocketcloudlets/internal/searchlog"
)

// Fig7Counts are the x-axis points of Figure 7: number of cached pairs.
var Fig7Counts = []int{1000, 2500, 5000, 10000, 20000, 40000, 80000}

// Fig7Result carries the cumulative pair-volume curve.
type Fig7Result struct {
	Counts []int
	Shares []float64
	// SaturationPairs is the selection size at the evaluation share.
	SaturationPairs int
}

// Fig7 computes cumulative query-search-result volume against the
// number of most popular pairs cached.
func Fig7(l *Lab) Fig7Result {
	tbl := l.Triplets()
	r := Fig7Result{Counts: Fig7Counts}
	for _, n := range Fig7Counts {
		r.Shares = append(r.Shares, tbl.CumulativeShare(n))
	}
	if n, err := cachegen.SelectByShare(tbl, EvalShare); err == nil {
		r.SaturationPairs = n
	}
	return r
}

// Table renders the curve.
func (r Fig7Result) Table() Table {
	t := Table{
		ID:      "Figure 7",
		Title:   "Cumulative query-search result volume vs. pairs cached",
		Columns: []string{"pairs cached", "cumulative volume"},
		Notes: []string{
			"paper: value of adding pairs quickly diminishes (58% at 20000 pairs vs 62% at 40000)",
			fmt.Sprintf("the %.0f%% evaluation cache needs %d pairs", 100*EvalShare, r.SaturationPairs),
		},
	}
	for i, n := range r.Counts {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), percent(r.Shares[i])})
	}
	return t
}

// Fig8Shares are the x-axis points of Figure 8: aggregate volume share.
var Fig8Shares = []float64{0.30, 0.40, 0.50, 0.55, 0.58, 0.60}

// Fig8Result carries the memory-overhead curve.
type Fig8Result struct {
	Shares     []float64
	Pairs      []int
	Footprints []cachegen.Footprint
}

// Fig8 computes the DRAM (hash table) and flash (result database)
// footprint of the cache at increasing aggregate-volume targets.
func Fig8(l *Lab) Fig8Result {
	tbl := l.Triplets()
	u := l.Universe()
	model := cachegen.MemoryModel{
		SlotsPerEntry: 2,
		RecordBytes: func(rid searchlog.ResultID) int {
			return len(u.Result(rid).Record())
		},
		// 32 database files average half an allocation unit of slack.
		FlashSlackBytes: int64(resultdb.DefaultFiles * 4096 / 2),
	}
	var r Fig8Result
	for _, share := range Fig8Shares {
		n, err := cachegen.SelectByShare(tbl, share)
		if err != nil {
			continue
		}
		r.Shares = append(r.Shares, share)
		r.Pairs = append(r.Pairs, n)
		r.Footprints = append(r.Footprints, model.FootprintOf(tbl, u, n))
	}
	return r
}

// At returns the footprint at a share target, or false.
func (r Fig8Result) At(share float64) (cachegen.Footprint, bool) {
	for i, s := range r.Shares {
		if s == share {
			return r.Footprints[i], true
		}
	}
	return cachegen.Footprint{}, false
}

// Table renders the curve.
func (r Fig8Result) Table() Table {
	t := Table{
		ID:      "Figure 8",
		Title:   "PocketSearch DRAM and flash overhead vs. aggregate volume cached",
		Columns: []string{"aggregate volume", "pairs", "queries", "unique results", "DRAM", "flash"},
		Notes:   []string{"paper: the 55% saturation point costs ~200 KB DRAM and ~1 MB flash — under 1% of a smartphone's memory"},
	}
	for i := range r.Shares {
		fp := r.Footprints[i]
		t.Rows = append(t.Rows, []string{
			percent(r.Shares[i]),
			fmt.Sprintf("%d", r.Pairs[i]),
			fmt.Sprintf("%d", fp.Queries),
			fmt.Sprintf("%d", fp.Results),
			fmt.Sprintf("%.0f KB", float64(fp.DRAMBytes)/1000),
			fmt.Sprintf("%.2f MB", float64(fp.FlashBytes)/1e6),
		})
	}
	return t
}

// Fig11Slots are the x-axis points of Figure 11.
var Fig11Slots = []int{1, 2, 3, 4, 5, 6}

// Fig11Result carries the hash-table footprint sweep.
type Fig11Result struct {
	Slots     []int
	Footprint []int64
	Entries   []int
	// BestSlots is the footprint-minimizing slot count.
	BestSlots int
}

// Fig11 builds the evaluation cache's hash table with different
// numbers of search results per entry and measures the modeled DRAM
// footprint of each variant.
func Fig11(l *Lab) Fig11Result {
	content := l.Content()
	u := l.Universe()
	r := Fig11Result{Slots: Fig11Slots}
	best, bestFoot := 0, int64(1<<62)
	for _, k := range Fig11Slots {
		tbl := hashtable.MustNew(k)
		for _, tr := range content.Triplets {
			qh := hash64.Sum(u.QueryText(u.QueryOf(tr.Pair)))
			rh := hash64.Sum(u.ResultURL(u.ResultOf(tr.Pair)))
			tbl.Put(qh, hashtable.SearchRef{ResultHash: rh, Score: content.Scores[tr.Pair]})
		}
		foot := tbl.FootprintBytes()
		r.Footprint = append(r.Footprint, foot)
		r.Entries = append(r.Entries, tbl.NumEntries())
		if foot < bestFoot {
			best, bestFoot = k, foot
		}
	}
	r.BestSlots = best
	return r
}

// Table renders the sweep.
func (r Fig11Result) Table() Table {
	t := Table{
		ID:      "Figure 11",
		Title:   "Hash table memory footprint vs. search results per entry",
		Columns: []string{"results per entry", "entries", "footprint"},
		Notes:   []string{fmt.Sprintf("paper: two results per entry minimize the footprint; measured best = %d", r.BestSlots)},
	}
	for i, k := range r.Slots {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", r.Entries[i]),
			fmt.Sprintf("%.0f KB", float64(r.Footprint[i])/1000),
		})
	}
	return t
}

// Fig12Files are the x-axis points of Figure 12.
var Fig12Files = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Fig12Result carries the database file-count sweep.
type Fig12Result struct {
	Files []int
	// MeanFetch is the average modeled time to retrieve the two
	// displayed search results of a query.
	MeanFetch []time.Duration
	// Deviation is the spread across seeded repetitions (the paper's
	// error bars over 10 consecutive experiments).
	Deviation []time.Duration
	// Fragmentation is the database's allocation slack.
	Fragmentation []int64
}

// Fig12Records is the record population of the Figure 12 sweep,
// matching the evaluation cache ("approximately 2500 search results").
const Fig12Records = 2500

// Fig12 sweeps the database file count, measuring two-result retrieval
// time and flash fragmentation for each configuration.
func Fig12() Fig12Result {
	r := Fig12Result{Files: Fig12Files}
	record := make([]byte, 500)
	const runs = 10
	for _, files := range Fig12Files {
		// Bulk-build the record population once per file count.
		perFile := make([]map[uint64][]byte, files)
		for i := range perFile {
			perFile[i] = make(map[uint64][]byte)
		}
		for i := 0; i < Fig12Records; i++ {
			h := uint64(i) * 2654435761
			perFile[h%uint64(files)][h] = record
		}
		var runMeans []time.Duration
		var lastFrag int64
		for run := 0; run < runs; run++ {
			dev := flashsim.NewDevice(flashsim.Params{JitterFrac: 0.12, Seed: int64(run + 1)})
			store := flashsim.NewFileStore(dev)
			db, err := resultdb.New(store, resultdb.Config{Files: files})
			if err != nil {
				panic(err)
			}
			for i := 0; i < files; i++ {
				if _, err := db.ReplaceFile(i, perFile[i]); err != nil {
					panic(err)
				}
			}
			var total time.Duration
			const queries = 40
			for q := 0; q < queries; q++ {
				// A query fetches its two displayed results.
				for _, probe := range []int{q * 31, q*31 + 17} {
					_, lat, err := db.Get(uint64(probe%Fig12Records) * 2654435761)
					if err != nil {
						panic(err)
					}
					total += lat
				}
			}
			runMeans = append(runMeans, total/queries)
			lastFrag = db.FragmentationBytes()
		}
		mean, dev := meanDev(runMeans)
		r.MeanFetch = append(r.MeanFetch, mean)
		r.Deviation = append(r.Deviation, dev)
		r.Fragmentation = append(r.Fragmentation, lastFrag)
	}
	return r
}

func meanDev(xs []time.Duration) (mean, dev time.Duration) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	mean = sum / time.Duration(len(xs))
	var varSum float64
	for _, x := range xs {
		d := float64(x - mean)
		varSum += d * d
	}
	dev = time.Duration(math.Sqrt(varSum / float64(len(xs))))
	return mean, dev
}

// FetchAt returns the mean fetch time at a file count, or false.
func (r Fig12Result) FetchAt(files int) (time.Duration, bool) {
	for i, f := range r.Files {
		if f == files {
			return r.MeanFetch[i], true
		}
	}
	return 0, false
}

// Table renders the sweep.
func (r Fig12Result) Table() Table {
	t := Table{
		ID:      "Figure 12",
		Title:   fmt.Sprintf("Average time to retrieve two search results vs. database files (%d records)", Fig12Records),
		Columns: []string{"files", "mean fetch", "deviation", "fragmentation"},
		Notes:   []string{"paper: 32 files is the best tradeoff between flash fragmentation and response time (~10 ms fetch, Table 4)"},
	}
	for i, f := range r.Files {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%.2f ms", float64(r.MeanFetch[i])/float64(time.Millisecond)),
			fmt.Sprintf("±%.2f ms", float64(r.Deviation[i])/float64(time.Millisecond)),
			fmt.Sprintf("%.0f KB", float64(r.Fragmentation[i])/1000),
		})
	}
	return t
}
