package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/scenario"
	"pocketcloudlets/internal/searchlog"
)

// recordEdges are the results where a field of a record changes width:
// the first and last navigational results and the results either side
// of the navigational/non-navigational boundary, and either side of
// every base-36 digit-width step of the title numerals — a navigational
// title's block number i/2, a non-navigational title's rank — within the
// universe, with the universe's last result.
func recordEdges(cfg engine.Config, u *engine.Universe) map[string]searchlog.ResultID {
	nav := cfg.NavPairs / 4 // two results per block of eight pairs
	edges := map[string]searchlog.ResultID{
		"first navigational":     0,
		"second navigational":    1,
		"last navigational":      searchlog.ResultID(nav - 1),
		"first non-navigational": searchlog.ResultID(nav),
		"last result":            searchlog.ResultID(u.NumResults() - 1),
	}
	for w := 36; w < u.NumResults(); w *= 36 {
		for d := -1; d <= 0; d++ {
			if i := 2 * (w + d); i+1 < nav {
				edges[fmt.Sprintf("navigational block %d (front page)", w+d)] = searchlog.ResultID(i)
				edges[fmt.Sprintf("navigational block %d (section)", w+d)] = searchlog.ResultID(i + 1)
			}
			if j := nav + w + d; j < u.NumResults() {
				edges[fmt.Sprintf("non-navigational rank %d", w+d)] = searchlog.ResultID(j)
			}
		}
	}
	return edges
}

// TestRecordLenMatchesTheRecord holds Universe.RecordLen, summed from
// field widths, to the length of the record Result.Record serializes,
// for every result of the scenario universe and of the default one — a
// cache stores a record's length without rendering it, and the file
// bytes a reader renders must then be exactly as long. The width edges
// are checked first, by name, with AppendRecord held to Result.Record
// byte for byte there.
func TestRecordLenMatchesTheRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  engine.Config
	}{{"scenario", scenario.UniverseConfig()}, {"default", engine.DefaultConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			u := engine.MustUniverse(tc.cfg)
			for edge, id := range recordEdges(tc.cfg, u) {
				rec := u.Result(id).Record()
				if got := u.RecordLen(id); got != len(rec) {
					t.Errorf("%s (result %d): RecordLen %d, record %d bytes: %q", edge, id, got, len(rec), rec)
				}
				if got := u.AppendRecord(nil, id); !bytes.Equal(got, rec) {
					t.Errorf("%s (result %d): AppendRecord %q, Record %q", edge, id, got, rec)
				}
			}
			for id := searchlog.ResultID(0); int(id) < u.NumResults(); id++ {
				if got, want := u.RecordLen(id), len(u.Result(id).Record()); got != want {
					t.Fatalf("result %d: RecordLen %d, record %d bytes", id, got, want)
				}
			}
		})
	}
}

// TestRecordsNameAndRender holds the engine's record source to its
// contract: a result's rendering is named by the result's ID and
// rendered back from it; bytes that are no result's rendering — a
// non-canonical address, a changed snippet, no fields at all — are kept
// as handed and named past the results, their Result a parse of the
// bytes; and IDs stay stable under concurrent naming.
func TestRecordsNameAndRender(t *testing.T) {
	u := engine.MustUniverse(scenario.UniverseConfig())
	src := engine.New(u).Records()
	for _, id := range []searchlog.ResultID{0, 1, 12_001, searchlog.ResultID(u.NumResults() - 1)} {
		rec := u.Result(id).Record()
		if got := src.Name(rec); got != uint32(id) {
			t.Fatalf("result %d's record is named %d", id, got)
		}
		if got := src.Record(uint32(id)); !bytes.Equal(got, rec) || cap(got) != len(got) {
			t.Fatalf("result %d renders %q (cap %d), want %q", id, got, cap(got), rec)
		}
		if got := src.AppendRecord([]byte("x"), uint32(id)); !bytes.Equal(got, append([]byte("x"), rec...)) {
			t.Fatalf("result %d appends %q", id, got)
		}
		if res, err := src.Result(uint32(id)); err != nil || res != u.Result(id) {
			t.Fatalf("result %d is %+v, %v", id, res, err)
		}
	}

	front := u.Result(2).Record() // "www.site1.com/"
	noncanonical := bytes.Replace(front, []byte("www.site1.com/"), []byte("www.site01.com/"), 1)
	changed := append(u.Result(5).Record()[:len(u.Result(5).Record())-1], '!')
	for _, rec := range [][]byte{noncanonical, changed, []byte("no fields")} {
		id := src.Name(rec)
		if int(id) < u.NumResults() {
			t.Fatalf("%q is named as result %d", rec, id)
		}
		if got := src.Record(id); &got[0] != &rec[0] || len(got) != len(rec) || cap(got) != len(got) {
			t.Fatalf("%q: kept record is %q, not the bytes handed in", rec, got)
		}
		want, wantErr := engine.ParseRecord(rec)
		if res, err := src.Result(id); res != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: Result %+v, %v; ParseRecord %+v, %v", rec, res, err, want, wantErr)
		}
	}

	var wg sync.WaitGroup
	ids := make([][]uint32, 4)
	for w := range ids {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				ids[w] = append(ids[w], src.Name([]byte(fmt.Sprintf("worker %d record %d", w, k))),
					src.Name(u.Result(searchlog.ResultID(k)).Record()))
			}
		}(w)
	}
	wg.Wait()
	for w := range ids {
		for k, id := range ids[w] {
			want := fmt.Sprintf("worker %d record %d", w, k/2)
			if k%2 == 1 {
				want = string(u.Result(searchlog.ResultID(k / 2)).Record())
			}
			if got := string(src.Record(id)); got != want {
				t.Fatalf("worker %d's name %d renders %q, want %q", w, id, got, want)
			}
		}
	}
}
