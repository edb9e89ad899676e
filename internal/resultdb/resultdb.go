// Package resultdb implements the custom search-result database of
// Section 5.2.2 of the Pocket Cloudlets paper (Figure 13): search
// results stored once each in a small, fixed number of plain-text
// files on flash, keyed by the hash of their web address.
//
// Each result is assigned to one of N files by hash modulo N. A file
// begins with a header line of (hash, offset, length) triples locating
// every record in the file body; records are appended at the end and
// the header is augmented. The file count trades retrieval time
// against flash fragmentation — few files mean long headers that are
// slow to read and parse, many files mean allocation slack — and the
// paper's sweep (Figure 12) picks 32 as the knee. Retrieval cost is
// modeled against the flash device (file open, page reads) plus a CPU
// charge for parsing header entries.
//
// The database keeps its files itself, as one slab of header entries,
// not as byte images: its flash store holds nothing for it, and every
// size and cost is computed from the header entries exactly as the
// bytes would give it and charged to the store's device. An entry names
// its record — an ID in the database's record Source and a length — and
// the bytes are the source's to give where they are read. A database
// over the engine's universe (internal/engine's Records), as every
// cache's is, so holds none: a result's record is a function of its ID,
// rendered when someone reads it.
package resultdb

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/slab"
)

// DefaultFiles is the paper's chosen database file count.
const DefaultFiles = 32

// HeaderParseCost is the modeled CPU time to parse one header triple
// during retrieval on the prototype-class device.
const HeaderParseCost = 5 * time.Microsecond

// Config parameterizes a database.
type Config struct {
	// Files is the number of database files (Figure 12 sweeps 1..256).
	Files int
}

// Source is where a database's records come from. The database stores
// a record as its ID and length and asks the source for the bytes only
// where bytes are read: Get and GetView, RecordsOf, and ReplaceAll's
// comparison of two records under different IDs. An ID stands for the
// same bytes as long as the source lives.
type Source interface {
	// Name returns the ID of the record whose bytes are rec. A source
	// may keep rec to name it, so the caller must not modify rec
	// afterwards.
	Name(rec []byte) uint32
	// Record returns record id's bytes, which nobody may modify: the
	// source's own when it keeps them, a fresh rendering otherwise.
	Record(id uint32) []byte
	// AppendRecord appends record id's bytes to b.
	AppendRecord(b []byte, id uint32) []byte
}

// kept is the source of a database made by New: it keeps every record it
// names, the very slice it was handed, and names it by its place. Records
// stay with it after their database drops them, so it suits databases
// that live as long as a test or a sweep point; a cache's database is
// over a source that renders and keeps nothing.
type kept struct{ recs [][]byte }

func (k *kept) Name(rec []byte) uint32 {
	k.recs = append(k.recs, rec)
	return uint32(len(k.recs) - 1)
}

func (k *kept) Record(id uint32) []byte {
	rec := k.recs[id]
	return rec[:len(rec):len(rec)]
}

func (k *kept) AppendRecord(b []byte, id uint32) []byte { return append(b, k.recs[id]...) }

// DB is the on-flash result database.
type DB struct {
	dev *flashsim.Device
	src Source
	cfg Config
	// entries is the slab: the header entries of every file, grouped by
	// file in file order, each file's run in header order. A user's
	// records are this one allocation, however many files they fill.
	entries []entry
	// files locates each file's run in the slab and sizes its header:
	// Files long, allocated with the first file written, so a retrieval
	// finds its file's run and header length without a search.
	files []fileRun
	// bytes is the total size of the database files, kept current by
	// every write.
	bytes int64
}

// fileRun is one file's place in the slab: its run starts at
// entries[start] and ends where the next file's starts, and hdr is its
// header line's length — zero when the file does not exist, one (the
// newline) when it exists without a record.
type fileRun struct {
	start, hdr uint32
}

// entry is one header entry: it locates a record in its file's body and
// names it — id in the database's source, length bytes long. The records
// tile the body in header order, so an entry's offset is the sum of the
// lengths before it in its run and is not stored. 32-bit lengths suffice
// because a database file is megabytes at most. Sixteen bytes and no
// pointer: the collector never scans a slab.
type entry struct {
	hash   uint64
	id     uint32
	length uint32
}

// Record names one stored record: the hash it is stored under, its ID in
// the database's source and its length in bytes.
type Record struct {
	Hash   uint64
	ID     uint32
	Length uint32
}

func (r Record) entry() entry  { return entry{r.Hash, r.ID, r.Length} }
func (e entry) record() Record { return Record{e.hash, e.id, e.length} }

// tripleLen is the length of e's header triple at body offset off: three
// hex numbers and two commas, known from the numbers' widths before a
// digit is written.
func tripleLen(e entry, off int) int {
	return hexLen(e.hash) + hexLen(uint64(off)) + hexLen(uint64(e.length)) + 2
}

// lineLen is the header line length of a run: the triples, a ';'
// between two, and the newline.
func lineLen(es []entry) int {
	n, off := max(len(es), 1), 0
	for _, e := range es {
		n += tripleLen(e, off)
		off += int(e.length)
	}
	return n
}

// bodyLen is the length of a run's record area.
func bodyLen(es []entry) int {
	n := 0
	for _, e := range es {
		n += int(e.length)
	}
	return n
}

// find is the index in es of the record stored under hash, or -1.
func find(es []entry, hash uint64) int {
	for k, e := range es {
		if e.hash == hash {
			return k
		}
	}
	return -1
}

// New creates a database over the given flash store whose records are
// the bytes it is handed: its source keeps them (kept).
func New(store *flashsim.FileStore, cfg Config) (*DB, error) {
	return open(store, new(kept), cfg)
}

// NewFrom creates a database over the given flash store whose records
// come from src. The database keeps its files itself and charges their
// costs to the store's device.
func NewFrom(store *flashsim.FileStore, src Source, cfg Config) (*DB, error) {
	if src == nil {
		return nil, fmt.Errorf("resultdb: record source is required")
	}
	return open(store, src, cfg)
}

// open validates its arguments and makes an empty database on store's
// device.
func open(store *flashsim.FileStore, src Source, cfg Config) (*DB, error) {
	if store == nil {
		return nil, fmt.Errorf("resultdb: store is required")
	}
	if cfg.Files <= 0 {
		return nil, fmt.Errorf("resultdb: file count must be positive, got %d", cfg.Files)
	}
	return &DB{dev: store.Device(), src: src, cfg: cfg}, nil
}

// Files returns the configured file count.
func (db *DB) Files() int { return db.cfg.Files }

// FileOf returns the file index a result hash is assigned to: the
// remainder of the hash divided by the file count (Section 5.2.2).
func (db *DB) FileOf(resultHash uint64) int {
	return int(resultHash % uint64(db.cfg.Files))
}

// appendHeader appends a run's header line, "hash,off,len;...\n" in
// hex, to b.
func appendHeader(b []byte, es []entry) []byte {
	off := 0
	for k, e := range es {
		if k > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendUint(b, e.hash, 16)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(off), 16)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(e.length), 16)
		off += int(e.length)
	}
	return append(b, '\n')
}

// hexLen is the number of digits strconv renders x with in base 16.
func hexLen(x uint64) int { return max(1, (bits.Len64(x)+3)/4) }

// run is file i's run of the slab, entries[lo:hi], and its header
// length, zero when the file does not exist.
func (db *DB) run(i int) (lo, hi, hdr int) {
	if db.files == nil {
		return 0, 0, 0
	}
	lo, hi = int(db.files[i].start), len(db.entries)
	if i+1 < len(db.files) {
		hi = int(db.files[i+1].start)
	}
	return lo, hi, int(db.files[i].hdr)
}

// splice replaces entries[lo:hi], which lie in file i's run, with es,
// and makes hdr file i's header length. The
// slab grows by an eighth (internal/slab) when it must, and the later
// files' runs move by the difference.
func (db *DB) splice(i, lo, hi int, es []entry, hdr int) {
	if db.files == nil {
		db.files = make([]fileRun, db.cfg.Files)
	}
	db.entries = slices.Replace(slab.Reserve(db.entries, len(es)-(hi-lo)), lo, hi, es...)
	db.files[i].hdr = uint32(hdr)
	if delta := uint32(len(es) - (hi - lo)); delta != 0 {
		for j := i + 1; j < len(db.files); j++ {
			db.files[j].start += delta
		}
	}
}

// file returns file i's run of the slab and its header length (zero when
// the file does not exist) without device-cost accounting.
func (db *DB) file(i int) ([]entry, int) {
	lo, hi, hdr := db.run(i)
	return db.entries[lo:hi], hdr
}

// appendFile appends file i's bytes — its header line, then its records
// in header order — to b, and reports whether the file exists. No
// operation renders a file: every size and cost comes from the entries,
// and the tests hold them to this rendering.
func (db *DB) appendFile(b []byte, i int) ([]byte, bool) {
	es, hdr := db.file(i)
	if hdr == 0 {
		return b, false
	}
	b = appendHeader(b, es)
	for _, e := range es {
		b = db.src.AppendRecord(b, e.id)
	}
	return b, true
}

// loadCost is the modeled latency of reading a file's header: open the
// file, read the header pages, parse each entry. Body latency charging
// is left to the caller since most operations touch only one record.
func (db *DB) loadCost(es []entry, hdr int) time.Duration {
	if hdr == 0 {
		return db.dev.OpenCost()
	}
	return db.dev.OpenCost() + db.dev.ReadCost(hdr) + time.Duration(len(es))*HeaderParseCost
}

// Put stores a record under its result hash, appending it to its file
// and augmenting the header. Storing an existing hash again is a no-op
// (results are shared across queries and stored once — the paper's
// factor-of-8 storage saving). It returns the modeled flash latency.
// The record is named by the database's source (Source.Name), which may
// keep it: the caller must not modify it afterwards. It never fails; the
// error result stays for the callers written against it.
func (db *DB) Put(resultHash uint64, record []byte) (time.Duration, error) {
	r := Record{Hash: resultHash, Length: uint32(len(record))}
	if es, _ := db.file(db.FileOf(resultHash)); find(es, resultHash) < 0 {
		r.ID = db.src.Name(record)
	}
	return db.PutRecord(r), nil
}

// PutRecord is Put of a record its source has named: r.ID and r.Length
// must be a record of the database's source and its length.
//
// The write is incremental: the new entry goes in at the end of its
// file's run, the header length grows by the new triple and its
// separator, and nothing is rendered, serialized, parsed or copied.
func (db *DB) PutRecord(r Record) time.Duration {
	i := db.FileOf(r.Hash)
	es, hdr := db.file(i)
	lat := db.loadCost(es, hdr)
	if find(es, r.Hash) >= 0 {
		return lat
	}
	e := r.entry()
	// The new header line is the stored one, its newline turned into the
	// ';' before the new triple, then the triple and a newline.
	newHdr := tripleLen(e, bodyLen(es)) + 1
	if len(es) > 0 {
		newHdr += hdr
	}
	// The header line changes size, so it is rewritten in place
	// (charged as a flash rewrite); the record itself is an append.
	lat += db.dev.RewriteCost(newHdr) + db.dev.WriteCost(int(r.Length))
	db.bytes += int64(newHdr - hdr + int(r.Length))
	_, hi, _ := db.run(i)
	db.splice(i, hi, hi, []entry{e}, newHdr)
	return lat
}

// Get retrieves the record stored under the result hash, with the
// modeled latency: open + header read + header parse + record pages.
// The returned slice is the caller's own copy.
func (db *DB) Get(resultHash uint64) ([]byte, time.Duration, error) {
	r, lat, err := db.Fetch(resultHash)
	if err != nil {
		return nil, lat, err
	}
	return db.src.AppendRecord(make([]byte, 0, r.Length), r.ID), lat, nil
}

// GetView is Get without the copy where the source keeps the record:
// the slice is then the very one the record was handed to Put as, and
// from a source that renders it is a fresh rendering. Either way nobody
// may modify it, and it stays valid after later writes, the record's own
// deletion included: no write changes a record's bytes.
func (db *DB) GetView(resultHash uint64) ([]byte, time.Duration, error) {
	r, lat, err := db.Fetch(resultHash)
	if err != nil {
		return nil, lat, err
	}
	return db.src.Record(r.ID), lat, nil
}

// Fetch is GetView without the bytes: the same modeled latency, and the
// record's name instead of its text — the retrieval of a reader that
// needs only which record it is, as a cache's serve path does.
func (db *DB) Fetch(resultHash uint64) (Record, time.Duration, error) {
	i := db.FileOf(resultHash)
	es, hdr := db.file(i)
	lat := db.loadCost(es, hdr)
	k := find(es, resultHash)
	if k < 0 {
		return Record{}, lat, fmt.Errorf("resultdb: result %x not found in file %d", resultHash, i)
	}
	lat += db.dev.ReadCost(int(es[k].length))
	return es[k].record(), lat, nil
}

// Contains reports whether a record exists, without charging latency
// (existence is known from the DRAM hash table in the real system).
func (db *DB) Contains(resultHash uint64) bool {
	es, _ := db.file(db.FileOf(resultHash))
	return find(es, resultHash) >= 0
}

// Hashes returns every stored result hash in ascending order.
func (db *DB) Hashes() []uint64 {
	var out []uint64
	for _, e := range db.entries {
		out = append(out, e.hash)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of stored records.
func (db *DB) Len() int {
	return len(db.entries)
}

func byHash(a, b Record) int { return cmp.Compare(a.Hash, b.Hash) }

// ReplaceFile atomically replaces one database file's full record set
// — the patch-application primitive of the Section 5.4 update cycle.
// It returns the modeled flash latency of rewriting the file. Like Put,
// the database has its source name the records.
func (db *DB) ReplaceFile(i int, records map[uint64][]byte) (time.Duration, error) {
	if i < 0 || i >= db.cfg.Files {
		return 0, fmt.Errorf("resultdb: file index %d out of range [0, %d)", i, db.cfg.Files)
	}
	for hash := range records {
		if db.FileOf(hash) != i {
			return 0, fmt.Errorf("resultdb: record %x does not belong in file %d", hash, i)
		}
	}
	recs := make([]Record, 0, len(records))
	for hash, data := range records {
		recs = append(recs, Record{hash, db.src.Name(data), uint32(len(data))})
	}
	slices.SortFunc(recs, byHash)
	return db.rewrite(i, recs), nil
}

// rewrite installs recs — file i's records, ordered by hash — as the
// file's whole content and returns the modeled latency of the rewrite.
func (db *DB) rewrite(i int, recs []Record) time.Duration {
	es := make([]entry, len(recs))
	for k, r := range recs {
		es[k] = r.entry()
	}
	hdr := lineLen(es)
	size := hdr + bodyLen(es)
	lo, hi, oldHdr := db.run(i)
	db.bytes += int64(size - oldHdr - bodyLen(db.entries[lo:hi]))
	db.splice(i, lo, hi, es, hdr)
	return db.dev.OpenCost() + db.dev.RewriteCost(size)
}

// byFile orders records by the file they belong in, then by hash.
func (db *DB) byFile(a, b Record) int {
	return cmp.Or(cmp.Compare(db.FileOf(a.Hash), db.FileOf(b.Hash)), byHash(a, b))
}

// fileRun splits records, ordered by file (byFile), into the leading
// run that belongs in file i and the rest.
func (db *DB) fileRun(records []Record, i int) (run, rest []Record) {
	n := 0
	for n < len(records) && db.FileOf(records[n].Hash) == i {
		n++
	}
	return records[:n], records[n:]
}

// ReplaceAll makes the database hold exactly records (each hash at most
// once; the slice is reordered): every file whose record set differs is
// rewritten as ReplaceFile would, files already holding their share are
// left alone, and the summed latency of the rewrites is returned — the
// whole patch step of an update, or of a migrated user's import, in one
// pass over the records and none over the files they leave untouched.
func (db *DB) ReplaceAll(records []Record) time.Duration {
	slices.SortFunc(records, db.byFile)
	var total time.Duration
	for i := 0; i < db.cfg.Files; i++ {
		var next []Record
		next, records = db.fileRun(records, i)
		if es, hdr := db.file(i); !db.holds(es, hdr, next) {
			total += db.rewrite(i, next)
		}
	}
	return total
}

// holds reports whether a file's record set is exactly recs, which are
// ordered by hash. A file that does not exist (hdr zero) holds nothing.
// Two records under one hash are the same when their IDs are; under
// different IDs the source renders both to compare the bytes.
func (db *DB) holds(es []entry, hdr int, recs []Record) bool {
	if hdr == 0 {
		return len(recs) == 0
	}
	if len(es) != len(recs) {
		return false
	}
	// The header is in insertion order; compare in hash order.
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.hash, b.hash) })
	for k, e := range es {
		r := recs[k]
		if e.hash != r.Hash || e.length != r.Length ||
			e.id != r.ID && !bytes.Equal(db.src.Record(e.id), db.src.Record(r.ID)) {
			return false
		}
	}
	return true
}

// Merge adds records to the files they belong in, a file at a time:
// every file one of them belongs in is rewritten, as ReplaceFile would,
// with the records it holds and theirs — theirs where both have a hash,
// the first where records repeat one — and the summed latency of the
// rewrites is returned. It is a cache's bulk load of community content.
// The slice is reordered.
func (db *DB) Merge(records []Record) time.Duration {
	slices.SortStableFunc(records, db.byFile)
	records = slices.CompactFunc(records, func(a, b Record) bool { return a.Hash == b.Hash })
	var total time.Duration
	for len(records) > 0 {
		i := db.FileOf(records[0].Hash)
		var next []Record
		next, records = db.fileRun(records, i)
		es, _ := db.file(i)
		recs := slices.Clone(next)
		for _, e := range es {
			if _, dup := slices.BinarySearchFunc(next, e.hash, func(r Record, h uint64) int { return cmp.Compare(r.Hash, h) }); !dup {
				recs = append(recs, e.record())
			}
		}
		slices.SortFunc(recs, byHash)
		total += db.rewrite(i, recs)
	}
	return total
}

// Delete removes the record stored under resultHash, rewriting its
// database file without it. It reports whether the record existed and
// the modeled flash latency of the rewrite (zero when absent). The
// fleet layer uses this to reclaim personal-cache flash under a
// storage budget.
func (db *DB) Delete(resultHash uint64) (time.Duration, bool) {
	i := db.FileOf(resultHash)
	es, _ := db.file(i)
	if find(es, resultHash) < 0 {
		return 0, false
	}
	recs := make([]Record, 0, len(es)-1)
	for _, e := range es {
		if e.hash != resultHash {
			recs = append(recs, e.record())
		}
	}
	slices.SortFunc(recs, byHash)
	return db.rewrite(i, recs), true
}

// RecordsOf returns copies of the records of one file keyed by hash —
// the server-side read when computing patches.
func (db *DB) RecordsOf(i int) map[uint64][]byte {
	es, _ := db.file(i)
	out := make(map[uint64][]byte, len(es))
	for _, e := range es {
		out[e.hash] = db.src.AppendRecord(make([]byte, 0, e.length), e.id)
	}
	return out
}

// LogicalBytes is the total size of the database files: a running
// total (see DB.bytes), not a scan.
func (db *DB) LogicalBytes() int64 { return db.bytes }

// AllocatedBytes is the flash space the database occupies including
// allocation slack.
func (db *DB) AllocatedBytes() int64 {
	var n int64
	for i := range db.files {
		es, hdr := db.file(i)
		n += db.dev.AllocatedBytes(hdr + bodyLen(es))
	}
	return n
}

// FragmentationBytes is the allocation slack of the database — the
// quantity that grows with the file count in the Figure 12 tradeoff.
func (db *DB) FragmentationBytes() int64 {
	return db.AllocatedBytes() - db.LogicalBytes()
}
