// Package updater implements the cache management cycle of Section 5.4
// of the Pocket Cloudlets paper (Figure 14): the phone transmits its
// hash table to the server; the server prunes pairs the user never
// accessed, merges in the freshly extracted popular set (resolving
// score conflicts by taking the maximum), and produces a new hash
// table plus patch files for the result database; the phone applies
// them. Updates run overnight while the device charges, so they cost
// flash time but no radio energy in the evaluation.
package updater

import (
	"bytes"
	"fmt"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/resultdb"
)

// Policy tunes the server-side merge.
type Policy struct {
	// MinAccessedScore is the score below which even a user-accessed
	// pair is dropped (the paper's "hasn't accessed the search result
	// over the last 3 months" eviction).
	MinAccessedScore float64
}

// DefaultPolicy drops accessed pairs only when their personalized
// score has decayed to a negligible level.
func DefaultPolicy() Policy { return Policy{MinAccessedScore: 0.05} }

// Update is the server's response: the merged hash table and the
// record patches to install, plus transfer accounting.
type Update struct {
	// Table is the merged hash table to install on the phone.
	Table *hashtable.Table
	// Records names every result record the merged cache requires,
	// keyed by result hash: its ID in the record source of the cache's
	// engine (engine.Records) and its length. The zero Record asks the
	// phone to keep the record it stores. The phone turns these into
	// per-file patches against its database.
	Records map[uint64]resultdb.Record
	// Queries maps query hashes to their string form for the queries
	// the server shipped, so the phone can rebuild its
	// auto-completion index. Personal pairs the server cannot resolve
	// keep the phone's own strings.
	Queries map[uint64]string
	// TableBytes and RecordBytes size the transfer; the paper expects
	// the total under ~1.5 MB (200 KB table + ~1 MB records).
	TableBytes  int64
	RecordBytes int64
}

// TotalBytes is the full transfer size of the update.
func (u Update) TotalBytes() int64 { return u.TableBytes + u.RecordBytes }

// BuildUpdate runs the server side of Figure 14: given the phone's
// uploaded hash table and the freshly extracted popular set, produce
// the merged update.
func BuildUpdate(phone *hashtable.Table, fresh cachegen.Content, u *engine.Universe, policy Policy) (Update, error) {
	slots := 2
	if phone != nil {
		slots = phone.SlotsPerEntry()
	}
	merged, err := hashtable.New(slots)
	if err != nil {
		return Update{}, err
	}

	// Step 1: preserve the pairs the user has accessed, pruning the
	// rest and anything whose score fell below the policy floor.
	if phone != nil {
		for _, p := range phone.Pairs() {
			if !p.Accessed || p.Score < policy.MinAccessedScore {
				continue
			}
			merged.Put(p.QueryHash, hashtable.SearchRef{ResultHash: p.ResultHash, Score: p.Score})
			merged.MarkAccessed(p.QueryHash, p.ResultHash)
		}
	}

	// Step 2: merge the fresh popular set; conflicts adopt the
	// maximum of the phone's score and the server's score.
	records := make(map[uint64]resultdb.Record)
	queries := make(map[uint64]string)
	for _, tr := range fresh.Triplets {
		q := u.QueryText(u.QueryOf(tr.Pair))
		id := u.ResultOf(tr.Pair)
		qh, rh := hash64.Sum(q), hash64.Sum(u.ResultURL(id))
		queries[qh] = q
		score := fresh.Scores[tr.Pair]
		if prev, ok := merged.Score(qh, rh); ok && prev > score {
			score = prev
		}
		accessed := merged.Accessed(qh, rh)
		merged.Put(qh, hashtable.SearchRef{ResultHash: rh, Score: score})
		if accessed {
			merged.MarkAccessed(qh, rh)
		}
		records[rh] = resultdb.Record{Hash: rh, ID: uint32(id), Length: uint32(u.RecordLen(id))}
	}

	// Step 3: materialize records for preserved personal pairs. The
	// server regenerates them from its corpus; hashes it cannot
	// resolve keep whatever record the phone already stores.
	for _, p := range merged.Pairs() {
		if _, ok := records[p.ResultHash]; ok {
			continue
		}
		records[p.ResultHash] = resultdb.Record{} // keep the phone's copy
	}

	upd := Update{Table: merged, Records: records, Queries: queries}
	var buf bytes.Buffer
	if err := merged.Encode(&buf); err != nil {
		return Update{}, err
	}
	upd.TableBytes = int64(buf.Len())
	for _, rec := range records {
		upd.RecordBytes += int64(rec.Length)
	}
	return upd, nil
}

// ExportState snapshots a cache's full state as an Update — the same
// wire format the overnight cycle ships, reused by fleet resharding to
// move a user's personal component between shards. The table is the one
// decoding its wire encoding would build (a deep copy preserving per-pair
// Accessed bits, sized as that encoding in TableBytes), made without
// writing the bytes; every record the table references is named as the
// result database stores it, by ID and length, so a move renders
// nothing; and Queries carries the auto-completion vocabulary. Applying
// the export to an empty cache reproduces the source cache's hit/miss
// behavior exactly.
func ExportState(c *pocketsearch.Cache) (Update, error) {
	pairs := c.Table().Pairs()
	table, err := hashtable.FromPairs(c.Table().SlotsPerEntry(), pairs)
	if err != nil {
		return Update{}, err
	}
	upd := Update{
		Table:      table,
		Records:    make(map[uint64]resultdb.Record, len(pairs)),
		Queries:    c.QueryTexts(),
		TableBytes: int64(hashtable.EncodedLen(len(pairs))),
	}
	db := c.DB()
	for _, p := range pairs {
		if _, ok := upd.Records[p.ResultHash]; ok {
			continue
		}
		rec, _, err := db.Fetch(p.ResultHash)
		if err != nil {
			// The record is gone from flash; the pair cannot survive the
			// move.
			table.RemoveResult(p.ResultHash)
			continue
		}
		upd.Records[p.ResultHash] = rec
		upd.RecordBytes += int64(rec.Length)
	}
	return upd, nil
}

// Apply installs an update on a PocketSearch cache: the hash table is
// replaced and every database file whose record set changed is
// rewritten as a patch. It returns the modeled flash latency of
// applying the patches (charged to the device as busy time).
func Apply(c *pocketsearch.Cache, upd Update) (time.Duration, error) {
	if upd.Table == nil {
		return 0, fmt.Errorf("updater: update has no table")
	}
	db := c.DB()

	// The merged record set, keep sentinels resolved against the phone's
	// current records.
	records := make([]resultdb.Record, 0, len(upd.Records))
	for rh, rec := range upd.Records {
		if rec == (resultdb.Record{}) {
			existing, _, err := db.Fetch(rh)
			if err != nil {
				// The phone lost the record; drop the pair entirely.
				upd.Table.RemoveResult(rh)
				continue
			}
			rec = existing
		}
		records = append(records, rec)
	}
	total := db.ReplaceAll(records)
	c.ReplaceTable(upd.Table, upd.Queries)
	c.Device().Busy(total, device.Store)
	return total, nil
}
