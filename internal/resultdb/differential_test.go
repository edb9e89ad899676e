package resultdb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/resultdb"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/updater"
)

// refDB is the result database as it was before its write funnel became
// incremental, kept as the reference the real one is held against: it
// caches nothing, every operation re-reads and re-parses its file with
// strings.Split, and every write re-serializes the whole header with
// fmt.Fprintf and copies the body. Slow and obviously right.
type refDB struct {
	store     *flashsim.FileStore
	files     int
	parseCost time.Duration
}

type refEntry struct {
	hash        uint64
	off, length int
}

func (r *refDB) name(i int) string      { return fmt.Sprintf("psdb-%d.db", i) }
func (r *refDB) fileOf(hash uint64) int { return int(hash % uint64(r.files)) }
func (r *refDB) dev() *flashsim.Device  { return r.store.Device() }
func refFind(h []refEntry, hash uint64) (refEntry, bool) {
	for _, e := range h {
		if e.hash == hash {
			return e, true
		}
	}
	return refEntry{}, false
}

func refSerialize(h []refEntry) []byte {
	var b bytes.Buffer
	for i, e := range h {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%x,%x,%x", e.hash, e.off, e.length)
	}
	b.WriteByte('\n')
	return b.Bytes()
}

func refParse(line []byte) ([]refEntry, error) {
	var h []refEntry
	s := strings.TrimSuffix(string(line), "\n")
	if s == "" {
		return h, nil
	}
	for _, part := range strings.Split(s, ";") {
		fields := strings.Split(part, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("malformed header triple %q", part)
		}
		hash, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, err
		}
		off, err := strconv.ParseInt(fields[1], 16, 64)
		if err != nil {
			return nil, err
		}
		length, err := strconv.ParseInt(fields[2], 16, 64)
		if err != nil {
			return nil, err
		}
		h = append(h, refEntry{hash: hash, off: int(off), length: int(length)})
	}
	return h, nil
}

// peek parses file i without charging the device.
func (r *refDB) peek(i int) (h []refEntry, body []byte, hdrLen int, ok bool, err error) {
	data, ok := r.store.Peek(r.name(i))
	if !ok {
		return nil, nil, 0, false, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, nil, 0, false, fmt.Errorf("file %q has no header line", r.name(i))
	}
	h, err = refParse(data[:nl+1])
	return h, data[nl+1:], nl + 1, true, err
}

// load is peek plus the modeled cost of opening the file and reading
// and parsing its header.
func (r *refDB) load(i int) ([]refEntry, []byte, time.Duration, error) {
	h, body, hdrLen, ok, err := r.peek(i)
	if err != nil {
		return nil, nil, 0, err
	}
	if !ok {
		return nil, nil, r.dev().OpenCost(), nil
	}
	lat := r.dev().OpenCost() + r.dev().ReadCost(hdrLen) + time.Duration(len(h))*r.parseCost
	return h, body, lat, nil
}

func (r *refDB) write(i int, h []refEntry, body []byte) {
	r.store.ReplaceSilently(r.name(i), append(refSerialize(h), body...))
}

func (r *refDB) Put(hash uint64, record []byte) (time.Duration, error) {
	i := r.fileOf(hash)
	h, body, lat, err := r.load(i)
	if err != nil {
		return 0, err
	}
	if _, exists := refFind(h, hash); exists {
		return lat, nil
	}
	h = append(append([]refEntry(nil), h...), refEntry{hash: hash, off: len(body), length: len(record)})
	body = append(append([]byte(nil), body...), record...)
	lat += r.dev().RewriteCost(len(refSerialize(h))) + r.dev().WriteCost(len(record))
	r.write(i, h, body)
	return lat, nil
}

func (r *refDB) Get(hash uint64) ([]byte, time.Duration, error) {
	h, body, lat, err := r.load(r.fileOf(hash))
	if err != nil {
		return nil, 0, err
	}
	e, ok := refFind(h, hash)
	if !ok {
		return nil, lat, fmt.Errorf("not found")
	}
	if e.off < 0 || e.off+e.length > len(body) {
		return nil, lat, fmt.Errorf("corrupt header entry")
	}
	lat += r.dev().ReadCost(e.length)
	return body[e.off : e.off+e.length], lat, nil
}

func (r *refDB) RecordsOf(i int) map[uint64][]byte {
	out := make(map[uint64][]byte)
	h, body, _, _, _ := r.peek(i)
	for _, e := range h {
		out[e.hash] = append([]byte(nil), body[e.off:e.off+e.length]...)
	}
	return out
}

func (r *refDB) ReplaceFile(i int, records map[uint64][]byte) (time.Duration, error) {
	if i < 0 || i >= r.files {
		return 0, fmt.Errorf("file index out of range")
	}
	hashes := make([]uint64, 0, len(records))
	for hash := range records {
		if r.fileOf(hash) != i {
			return 0, fmt.Errorf("record does not belong in file")
		}
		hashes = append(hashes, hash)
	}
	sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
	var h []refEntry
	var body []byte
	for _, hash := range hashes {
		h = append(h, refEntry{hash: hash, off: len(body), length: len(records[hash])})
		body = append(body, records[hash]...)
	}
	lat := r.dev().OpenCost() + r.dev().RewriteCost(len(refSerialize(h))+len(body))
	r.write(i, h, body)
	return lat, nil
}

func (r *refDB) Delete(hash uint64) (time.Duration, bool, error) {
	f := r.fileOf(hash)
	recs := r.RecordsOf(f)
	if _, ok := recs[hash]; !ok {
		return 0, false, nil
	}
	delete(recs, hash)
	lat, err := r.ReplaceFile(f, recs)
	return lat, err == nil, err
}

func (r *refDB) Hashes() []uint64 {
	var out []uint64
	for i := 0; i < r.files; i++ {
		h, _, _, _, _ := r.peek(i)
		for _, e := range h {
			out = append(out, e.hash)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refDB) LogicalBytes() int64 { return r.store.LogicalBytes() }

// diffRig drives the real database — reached the way the system reaches
// it, through a PocketSearch cache on a device — and the reference
// through the same operations on twin flash devices (same parameters,
// same jitter seed, so an extra or reordered cost call shows up as a
// latency mismatch on every later operation).
type diffRig struct {
	t     *testing.T
	eng   *engine.Engine
	files int
	gen   int64 // device generation: the jitter seed of the next twin pair
	cache *pocketsearch.Cache
	ref   *refDB
	// live is the model of what both databases hold.
	live map[uint64][]byte
	// byID makes the rig's records universe results, put by ID and held
	// to be stored by ID; otherwise they are random bytes, put as bytes.
	byID bool
}

func (d *diffRig) flashParams() flashsim.Params {
	d.gen++
	return flashsim.Params{JitterFrac: 0.2, Seed: d.gen}
}

func (d *diffRig) newPair() (*pocketsearch.Cache, *refDB) {
	p := d.flashParams()
	dev := device.New(device.Config{}, radio.ThreeG(), p)
	cache, err := pocketsearch.New(dev, d.eng, pocketsearch.Options{DatabaseFiles: d.files})
	if err != nil {
		d.t.Fatal(err)
	}
	ref := &refDB{
		store:     flashsim.NewFileStore(flashsim.NewDevice(p)),
		files:     d.files,
		parseCost: resultdb.HeaderParseCost,
	}
	return cache, ref
}

func (d *diffRig) db() *resultdb.DB { return d.cache.DB() }

// indexLive points the cache's hash table at every live record, so the
// table-driven export sees the whole database.
func (d *diffRig) indexLive() {
	tbl, err := hashtable.New(2)
	if err != nil {
		d.t.Fatal(err)
	}
	for h := range d.live {
		tbl.Put(h, hashtable.SearchRef{ResultHash: h, Score: 1})
	}
	d.cache.ReplaceTable(tbl, nil)
}

func (d *diffRig) sameLat(step string, got, want time.Duration) {
	d.t.Helper()
	if got != want {
		d.t.Fatalf("%s: latency %v, reference %v", step, got, want)
	}
}

// check holds every observable of the real database against the
// reference: which files exist and their bytes, sizes, hashes,
// retrievals, device counters.
func (d *diffRig) check(step string, probes []uint64) {
	d.t.Helper()
	realStore, refStore := d.cache.Device().Store(), d.ref.store
	for i := 0; i < d.files; i++ {
		got, ok := resultdb.FileBytes(d.db(), i)
		want, wantOK := refStore.Peek(d.ref.name(i))
		if ok != wantOK || !bytes.Equal(got, want) {
			d.t.Fatalf("%s: file %d holds\n%q (exists %v)\nreference\n%q (exists %v)", step, i, got, ok, want, wantOK)
		}
	}
	if got, want := d.db().LogicalBytes(), d.ref.LogicalBytes(); got != want {
		d.t.Fatalf("%s: LogicalBytes %d, reference %d", step, got, want)
	}
	if got, want := d.db().AllocatedBytes(), refStore.AllocatedBytes(); got != want {
		d.t.Fatalf("%s: AllocatedBytes %d, reference %d", step, got, want)
	}
	hashes := d.db().Hashes()
	if want := d.ref.Hashes(); !reflect.DeepEqual(hashes, want) {
		d.t.Fatalf("%s: Hashes %x, reference %x", step, hashes, want)
	}
	if len(hashes) != len(d.live) || d.db().Len() != len(d.live) {
		d.t.Fatalf("%s: %d hashes, Len %d, model holds %d", step, len(hashes), d.db().Len(), len(d.live))
	}
	for _, h := range append(hashes, probes...) {
		got, lat, err := d.db().GetView(h)
		want, wantLat, wantErr := d.ref.Get(h)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			d.t.Fatalf("%s: GetView(%x) = %q, %v; reference %q, %v", step, h, got, err, want, wantErr)
		}
		d.sameLat(fmt.Sprintf("%s: GetView(%x)", step, h), lat, wantLat)
		rec, live := d.live[h]
		if live != (err == nil) || !bytes.Equal(rec, got) {
			d.t.Fatalf("%s: GetView(%x) = %q, model holds %q", step, h, got, rec)
		}
		if d.db().Contains(h) != live {
			d.t.Fatalf("%s: Contains(%x) = %v", step, h, !live)
		}
	}
	if got, want := realStore.Device().Stats(), refStore.Device().Stats(); got != want {
		d.t.Fatalf("%s: flash counters %+v, reference %+v", step, got, want)
	}
	if !d.byID {
		return
	}
	// Universe results are stored as their IDs: no record text is kept.
	// Fetch is charged as GetView is, so the reference pays a Get to
	// stay in step.
	for _, h := range hashes {
		r, lat, err := d.db().Fetch(h)
		_, wantLat, _ := d.ref.Get(h)
		if err != nil || int(r.ID) >= d.eng.Universe().NumResults() || int(r.Length) != len(d.live[h]) {
			d.t.Fatalf("%s: Fetch(%x) = %+v, %v: not result's ID and length", step, h, r, err)
		}
		d.sameLat(fmt.Sprintf("%s: Fetch(%x)", step, h), lat, wantLat)
	}
}

// TestDifferentialAgainstLegacyDatabase drives seeded random sequences
// of every operation that writes the database through the real
// implementation and the legacy reference, and compares everything
// observable after each step. Its records are random bytes: the engine's
// record source keeps them as handed.
func TestDifferentialAgainstLegacyDatabase(t *testing.T) { runDifferential(t, false) }

// TestDifferentialUniverseRecords is the same sequences over records
// that are universe results, put by ID (PutRecord, ReplaceAll) and as
// their renderings (ReplaceFile), which the source names by ID: the
// real database stores no record text and renders every byte the
// reference holds, and check holds every stored record to a result's ID.
func TestDifferentialUniverseRecords(t *testing.T) { runDifferential(t, true) }

func runDifferential(t *testing.T, byID bool) {
	u, err := engine.NewUniverse(engine.Config{NavPairs: 64, NonNavPairs: 64, NonNavSegments: []engine.Segment{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		files int
		seed  int64
	}{{1, 1}, {4, 2}, {32, 3}, {32, 7}} {
		t.Run(fmt.Sprintf("files%d/seed%d", tc.files, tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			d := &diffRig{t: t, eng: engine.New(u), files: tc.files, gen: 100 * tc.seed, live: map[uint64][]byte{}, byID: byID}
			d.cache, d.ref = d.newPair()
			// A small pool, so duplicate puts and deletes of absent
			// hashes happen, spread over every file.
			pool := make([]uint64, 48)
			for i := range pool {
				pool[i] = rng.Uint64()
			}
			record := func() []byte {
				if byID {
					return u.Result(searchlog.ResultID(rng.Intn(u.NumResults()))).Record()
				}
				rec := make([]byte, 1+rng.Intn(700))
				rng.Read(rec)
				return rec
			}
			for step := 0; step < 400; step++ {
				h := pool[rng.Intn(len(pool))]
				var name string
				switch op := rng.Intn(18); {
				case op < 10:
					name = fmt.Sprintf("step %d Put(%x)", step, h)
					rec := record()
					var lat time.Duration
					if byID {
						id, _ := u.RecordID(rec)
						lat = d.db().PutRecord(resultdb.Record{Hash: h, ID: uint32(id), Length: uint32(len(rec))})
					} else {
						lat, err = d.db().Put(h, rec)
					}
					wantLat, wantErr := d.ref.Put(h, rec)
					if err != nil || wantErr != nil {
						t.Fatalf("%s: %v / %v", name, err, wantErr)
					}
					d.sameLat(name, lat, wantLat)
					if _, dup := d.live[h]; !dup {
						d.live[h] = rec
					}
				case op < 13:
					name = fmt.Sprintf("step %d Delete(%x)", step, h)
					lat, ok := d.db().Delete(h)
					wantLat, wantOK, wantErr := d.ref.Delete(h)
					if wantErr != nil || ok != wantOK {
						t.Fatalf("%s: %v / %v %v", name, ok, wantOK, wantErr)
					}
					d.sameLat(name, lat, wantLat)
					delete(d.live, h)
				case op < 15:
					name = fmt.Sprintf("step %d EvictResult(%x)", step, h)
					before := d.ref.LogicalBytes()
					freed := d.cache.EvictResult(h)
					if _, _, err := d.ref.Delete(h); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := before - d.ref.LogicalBytes(); freed != want {
						t.Fatalf("%s: freed %d bytes, reference %d", name, freed, want)
					}
					delete(d.live, h)
				case op < 17:
					f := rng.Intn(tc.files)
					name = fmt.Sprintf("step %d ReplaceFile(%d)", step, f)
					recs := map[uint64][]byte{}
					for _, ph := range pool {
						if d.db().FileOf(ph) == f && rng.Intn(2) == 0 {
							recs[ph] = record()
						}
					}
					lat, err := d.db().ReplaceFile(f, recs)
					wantLat, wantErr := d.ref.ReplaceFile(f, recs)
					if err != nil || wantErr != nil {
						t.Fatalf("%s: %v / %v", name, err, wantErr)
					}
					d.sameLat(name, lat, wantLat)
					for ph := range d.live {
						if d.db().FileOf(ph) == f {
							delete(d.live, ph)
						}
					}
					for ph, rec := range recs {
						d.live[ph] = rec
					}
				case op < 18 && step%2 == 0:
					// The update cycle's patch step: a whole record set at
					// once, most files keeping what they hold. The reference
					// is the per-file loop ReplaceAll replaced — read each
					// file's records, replace the file when they differ.
					name = fmt.Sprintf("step %d ReplaceAll", step)
					next := map[uint64][]byte{}
					for ph, rec := range d.live {
						next[ph] = rec
					}
					changed := rng.Intn(tc.files)
					for _, ph := range pool {
						if d.db().FileOf(ph) == changed {
							if delete(next, ph); rng.Intn(2) == 0 {
								next[ph] = record()
							}
						}
					}
					// Named afresh: a kept record gets a second ID, and ReplaceAll
					// must find a file holding the same bytes unchanged.
					var recs []resultdb.Record
					for ph, rec := range next {
						recs = append(recs, resultdb.Record{Hash: ph, ID: d.eng.Records().Name(rec), Length: uint32(len(rec))})
					}
					lat := d.db().ReplaceAll(recs)
					var wantLat time.Duration
					for f := 0; f < tc.files; f++ {
						want := map[uint64][]byte{}
						for ph, rec := range next {
							if d.ref.fileOf(ph) == f {
								want[ph] = rec
							}
						}
						if !reflect.DeepEqual(d.ref.RecordsOf(f), want) {
							l, err := d.ref.ReplaceFile(f, want)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							wantLat += l
						}
					}
					d.sameLat(name, lat, wantLat)
					d.live = next
				default:
					// Shard-to-shard migration: export the cache's state
					// and apply it to an empty cache on a fresh device.
					name = fmt.Sprintf("step %d ExportState→Apply", step)
					d.indexLive()
					upd, err := updater.ExportState(d.cache)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					next, nextRef := d.newPair()
					lat, err := updater.Apply(next, upd)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var wantLat time.Duration
					for f := 0; f < tc.files; f++ {
						if recs := d.ref.RecordsOf(f); len(recs) > 0 {
							l, err := nextRef.ReplaceFile(f, recs)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							wantLat += l
						}
					}
					d.sameLat(name, lat, wantLat)
					d.cache, d.ref = next, nextRef
				}
				d.check(name, pool[:4])
			}
		})
	}
}

// TestMergeMatchesPerFileReplace holds Merge — a community preload's
// bulk load by ID — to the per-file loop it replaced: read each touched
// file's records, add the new ones (the first of a repeated hash, and
// the new one where a file already holds its hash), ReplaceFile. Over
// seeded databases that already hold records put by ID, on twin
// jittered devices, the files' bytes, the summed latency and the flash
// counters agree.
func TestMergeMatchesPerFileReplace(t *testing.T) {
	u, err := engine.NewUniverse(engine.Config{NavPairs: 64, NonNavPairs: 64, NonNavSegments: []engine.Segment{}})
	if err != nil {
		t.Fatal(err)
	}
	src := engine.New(u).Records()
	record := func(rng *rand.Rand, h uint64) resultdb.Record {
		id := searchlog.ResultID(rng.Intn(u.NumResults()))
		return resultdb.Record{Hash: h, ID: uint32(id), Length: uint32(u.RecordLen(id))}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		files := []int{1, 4, 32}[seed%3]
		p := flashsim.Params{JitterFrac: 0.2, Seed: seed}
		store, refStore := flashsim.NewFileStore(flashsim.NewDevice(p)), flashsim.NewFileStore(flashsim.NewDevice(p))
		db, err := resultdb.NewFrom(store, src, resultdb.Config{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := resultdb.NewFrom(refStore, src, resultdb.Config{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		pool := make([]uint64, 40)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		for i := 0; i < 15; i++ {
			r := record(rng, pool[rng.Intn(len(pool))])
			db.PutRecord(r)
			ref.PutRecord(r)
		}
		var recs []resultdb.Record
		for i := 0; i < 30; i++ {
			recs = append(recs, record(rng, pool[rng.Intn(len(pool))]))
		}

		perFile := map[int]map[uint64][]byte{}
		for _, r := range recs {
			f := ref.FileOf(r.Hash)
			if perFile[f] == nil {
				perFile[f] = map[uint64][]byte{}
			}
			if _, dup := perFile[f][r.Hash]; !dup {
				perFile[f][r.Hash] = src.Record(r.ID)
			}
		}
		var wantLat time.Duration
		for f := 0; f < files; f++ {
			next, ok := perFile[f]
			if !ok {
				continue
			}
			for h, rec := range ref.RecordsOf(f) {
				if _, ok := next[h]; !ok {
					next[h] = rec
				}
			}
			lat, err := ref.ReplaceFile(f, next)
			if err != nil {
				t.Fatal(err)
			}
			wantLat += lat
		}
		if lat := db.Merge(recs); lat != wantLat {
			t.Errorf("seed %d: Merge took %v, the per-file loop %v", seed, lat, wantLat)
		}
		for f := 0; f < files; f++ {
			got, _ := resultdb.FileBytes(db, f)
			want, _ := resultdb.FileBytes(ref, f)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: file %d holds\n%q\nthe per-file loop's\n%q", seed, f, got, want)
			}
		}
		if got, want := store.Device().Stats(), refStore.Device().Stats(); got != want {
			t.Errorf("seed %d: flash counters %+v, the per-file loop's %+v", seed, got, want)
		}
	}
}

// TestRejectedWritesLeaveTheDatabaseAlone: a write the database refuses
// must not move its files, its size total or its cached views.
func TestRejectedWritesLeaveTheDatabaseAlone(t *testing.T) {
	store := flashsim.NewFileStore(flashsim.NewDevice(flashsim.Params{}))
	db, err := resultdb.New(store, resultdb.Config{Files: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	view, _, err := db.GetView(5)
	if err != nil {
		t.Fatal(err)
	}
	size := db.LogicalBytes()
	if _, err := db.ReplaceFile(1, map[uint64][]byte{6: []byte("belongs in file 2")}); err == nil {
		t.Error("a record of another file should be refused")
	}
	if _, err := db.ReplaceFile(4, nil); err == nil {
		t.Error("a file index out of range should be refused")
	}
	if db.LogicalBytes() != size || string(view) != "five" || db.Len() != 1 {
		t.Errorf("size %d (want %d), view %q, %d records", db.LogicalBytes(), size, view, db.Len())
	}
}

// TestViewsOutliveTheNextWrite states the ownership rule: Put keeps the
// very slice it is given (the caller must not modify it afterwards), a
// GetView result is that slice, capacity clipped to the record, and
// because no write ever touches a stored record or an installed file, a
// view — of a record or of the whole file — a caller still holds keeps
// its bytes through later writes, the record's own deletion included.
func TestViewsOutliveTheNextWrite(t *testing.T) {
	store := flashsim.NewFileStore(flashsim.NewDevice(flashsim.Params{}))
	db, err := resultdb.New(store, resultdb.Config{Files: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := []byte("shared record")
	if _, err := db.Put(1, rec); err != nil {
		t.Fatal(err)
	}
	view, _, _ := db.GetView(1)
	if unsafe.SliceData(view) != unsafe.SliceData(rec) || string(view) != "shared record" {
		t.Fatalf("the database stored a copy of the record: %q", view)
	}
	if cap(view) != len(view) {
		t.Errorf("a view's capacity %d reaches past its %d bytes", cap(view), len(view))
	}
	whole, _ := resultdb.FileBytes(db, 0)
	for h := uint64(2); h < 6; h++ {
		if _, err := db.Put(h, bytes.Repeat([]byte{byte(h)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := db.Delete(1); !ok {
		t.Fatal("the record to delete was not stored")
	}
	if string(view) != "shared record" || !bytes.HasSuffix(whole, view) {
		t.Errorf("a held view changed under later writes: %q", view)
	}
}

func benchRecords(n int) ([]uint64, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	hashes := make([]uint64, n)
	records := make([][]byte, n)
	for i := range hashes {
		hashes[i] = rng.Uint64()
		records[i] = make([]byte, 450+rng.Intn(100))
	}
	return hashes, records
}

// putShapes are the databases a Put is held and timed on: fresh 32-file
// databases in the per-user shape (a month of expansions, ~40 records, a
// record or two per file) and the 256-record shape the repository
// benchmark's resultdb layer replays (eight records per file, so the
// copied file body dominates).
var putShapes = []int{40, 256}

// putter returns the i-th of a run of Puts into fresh n-record
// databases, every n-th Put starting a new one.
func putter(tb testing.TB, n int) (put func(i int)) {
	hashes, records := benchRecords(n)
	var db *resultdb.DB
	return func(i int) {
		if i%n == 0 {
			db, _ = resultdb.New(flashsim.NewFileStore(flashsim.NewDevice(flashsim.Params{})),
				resultdb.Config{Files: resultdb.DefaultFiles})
		}
		if _, err := db.Put(hashes[i%n], records[i%n]); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPutAllocatesNothing holds a Put below one allocation in either
// shape: it inserts into its database's slab, which grows by an eighth
// when full (DESIGN.md, "The cold-miss write path"). A per-file copy or a
// per-write file value coming back shows here as 2 or more.
func TestPutAllocatesNothing(t *testing.T) {
	const ceiling = 0
	for _, n := range putShapes {
		put, i := putter(t, n), 0
		if got := testing.AllocsPerRun(20000, func() { put(i); i++ }); got > ceiling {
			t.Errorf("records%d: a Put allocates %.0f objects, recorded %d", n, got, ceiling)
		}
	}
}

func BenchmarkPut(b *testing.B) {
	for _, n := range putShapes {
		b.Run(fmt.Sprintf("records%d", n), func(b *testing.B) {
			put := putter(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				put(i)
			}
		})
	}
}
