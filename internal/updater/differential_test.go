package updater

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/searchlog"
)

// refExportState is ExportState as it was: the table through its wire
// encoding and back, every record copied out of the database.
func refExportState(c *pocketsearch.Cache) (Update, error) {
	var buf bytes.Buffer
	if err := c.Table().Encode(&buf); err != nil {
		return Update{}, err
	}
	table, err := hashtable.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return Update{}, err
	}
	upd := Update{
		Table:      table,
		Records:    make(map[uint64][]byte),
		Queries:    c.QueryTexts(),
		TableBytes: int64(buf.Len()),
	}
	db := c.DB()
	for _, p := range table.Pairs() {
		if _, ok := upd.Records[p.ResultHash]; ok {
			continue
		}
		rec, _, err := db.Get(p.ResultHash)
		if err != nil {
			table.RemoveResult(p.ResultHash)
			continue
		}
		upd.Records[p.ResultHash] = rec
		upd.RecordBytes += int64(len(rec))
	}
	return upd, nil
}

// refApply is Apply as it was: records regrouped into a map per file,
// every file's current records read into another, the two compared and
// the file replaced when they differ.
func refApply(c *pocketsearch.Cache, upd Update) (time.Duration, error) {
	if upd.Table == nil {
		return 0, fmt.Errorf("updater: update has no table")
	}
	db := c.DB()
	perFile := make(map[int]map[uint64][]byte)
	for rh, rec := range upd.Records {
		if rec == nil {
			existing, _, err := db.Get(rh)
			if err != nil {
				upd.Table.RemoveResult(rh)
				continue
			}
			rec = existing
		}
		f := db.FileOf(rh)
		if perFile[f] == nil {
			perFile[f] = make(map[uint64][]byte)
		}
		perFile[f][rh] = rec
	}
	var total time.Duration
	for f := 0; f < db.Files(); f++ {
		current, err := db.RecordsOf(f)
		if err != nil {
			return total, err
		}
		next := perFile[f]
		if next == nil {
			next = map[uint64][]byte{}
		}
		if reflect.DeepEqual(current, next) {
			continue
		}
		lat, err := db.ReplaceFile(f, next)
		if err != nil {
			return total, err
		}
		total += lat
	}
	c.ReplaceTable(upd.Table, upd.Queries)
	c.Device().Busy(total, device.Store)
	return total, nil
}

// sameTable reports whether two tables hold the same pairs in the same
// number of entries. Where the entries sit in the slabs, and the head
// index's slot layout, follow the order the pairs went in.
func sameTable(a, b *hashtable.Table) bool {
	return reflect.DeepEqual(a.Pairs(), b.Pairs()) && a.NumEntries() == b.NumEntries()
}

// flash is every file of a cache's store, by name.
func flash(c *pocketsearch.Cache) map[string][]byte {
	store := c.Device().Store()
	files := make(map[string][]byte)
	for _, name := range store.Names() {
		files[name], _ = store.Peek(name)
	}
	return files
}

// TestExportApplyMatchReference holds the export/import pair a migrating
// user goes through, and the overnight update's Apply, to the code they
// replaced: over caches that have served random traffic (preloaded and
// learned pairs, shared results, evictions), the exported update is equal
// field for field, and applying it — to an empty cache as a migration
// does, and as a second update over a cache already holding most of it —
// leaves the same bytes in every flash file, the same table, the same
// returned latency and the same device clock and energy.
func TestExportApplyMatchReference(t *testing.T) {
	u := testUniverse(t)
	rng := rand.New(rand.NewSource(9))
	pairs := make([]searchlog.PairID, 40)
	vols := make([]int, len(pairs))
	for i := range pairs {
		pairs[i], vols[i] = u.NavPair(rng.Intn(600)), 1+rng.Intn(9)
	}
	for trial := 0; trial < 40; trial++ {
		src := newCache(t, u, contentFromPairs(u, pairs[:rng.Intn(len(pairs))], vols))
		for i, n := 0, rng.Intn(80); i < n; i++ {
			p := u.NavPair(rng.Intn(600))
			q, r := u.QueryText(u.QueryOf(p)), u.ResultURL(u.ResultOf(p))
			if _, err := src.Query(q, r); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(10) == 0 {
				_, rh := pairHashes(u, u.NavPair(rng.Intn(600)))
				src.EvictResult(rh)
			}
		}

		got, err := ExportState(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refExportState(src)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTable(got.Table, want.Table) {
			t.Fatalf("trial %d: exported table differs from the reference:\n got %v\nwant %v", trial, got.Table.Pairs(), want.Table.Pairs())
		}
		if got.Table, want.Table = nil, nil; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: export differs from the reference:\n got %+v\nwant %+v", trial, got, want)
		}

		// Onto an empty cache, then the same update again onto a cache a
		// few queries further on (most files unchanged, some not).
		dst, refDst := newCache(t, u, cachegen.Content{}), newCache(t, u, cachegen.Content{})
		for round := 0; round < 2; round++ {
			// Each side applies its own export: Apply edits the table it is
			// handed.
			upd, _ := ExportState(src)
			refUpd, _ := refExportState(src)
			lat, err := Apply(dst, upd)
			if err != nil {
				t.Fatal(err)
			}
			refLat, err := refApply(refDst, refUpd)
			if err != nil {
				t.Fatal(err)
			}
			if lat != refLat || dst.Device().Now() != refDst.Device().Now() ||
				dst.Device().TotalEnergy() != refDst.Device().TotalEnergy() {
				t.Fatalf("trial %d round %d: latency %v clock %v energy %v, reference %v %v %v", trial, round,
					lat, dst.Device().Now(), dst.Device().TotalEnergy(), refLat, refDst.Device().Now(), refDst.Device().TotalEnergy())
			}
			if !reflect.DeepEqual(flash(dst), flash(refDst)) {
				t.Fatalf("trial %d round %d: flash differs from the reference's", trial, round)
			}
			if !sameTable(dst.Table(), refDst.Table()) {
				t.Fatalf("trial %d round %d: table differs from the reference's", trial, round)
			}
			for i := 0; i < 5; i++ {
				p := u.NavPair(rng.Intn(600))
				q, r := u.QueryText(u.QueryOf(p)), u.ResultURL(u.ResultOf(p))
				for _, c := range []*pocketsearch.Cache{src, dst, refDst} {
					if _, err := c.Query(q, r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
