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
// The database keeps its files as one slab of header entries, each
// referencing its record, not as byte images: it is mounted on its
// flash store as the volume of its file names, so the store holds
// nothing per file and renders a file's plain text only when someone
// asks for it, and every size and cost is computed from the header
// entries exactly as the bytes would give it. A record is the very
// slice handed to Put (or ReplaceFile/ReplaceAll), so a fleet whose
// users cache the same result holds its bytes once.
package resultdb

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/slab"
)

// DefaultFiles is the paper's chosen database file count.
const DefaultFiles = 32

// DefaultHeaderParseCost is the modeled CPU time to parse one header
// triple on the prototype-class device.
const DefaultHeaderParseCost = 5 * time.Microsecond

// Config parameterizes a database.
type Config struct {
	// Files is the number of database files (Figure 12 sweeps 1..256).
	Files int
	// Prefix names the files in the flash store: "<prefix><i>.db".
	Prefix string
	// HeaderParseCost is the CPU cost per header entry parsed during
	// retrieval. Zero selects DefaultHeaderParseCost.
	HeaderParseCost time.Duration
}

// DB is the on-flash result database.
type DB struct {
	store *flashsim.FileStore
	cfg   Config
	// names precomputes the file names so nothing formats strings. The
	// slice is interned across databases (see fileNames): a million-user
	// fleet holds one database per user and they all name their files
	// identically.
	names []string
	// entries is the slab: the header entries of every file, grouped by
	// file in file order, each file's run in header order. A user's
	// records are this one allocation, however many files they fill.
	entries []entry
	// files locates each file's run in the slab and sizes its header:
	// Files long, allocated with the first file written, so a retrieval
	// finds its file's run and header length without a search.
	files []fileRun
	// raw holds, by file index, the files written from outside the
	// database as plain bytes (through the store: Write, Append,
	// ReplaceSilently), parsed into the slab on first touch. Nil while
	// there are none, which is always in a fleet.
	raw map[int][]byte
	// bytes is the total size of the database files, kept current by
	// every write, the store's included.
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
// references the record's bytes — data points at the first byte and
// length says how many follow. The records tile the body in header
// order, so an entry's offset is the sum of the lengths before it in its
// run and is not stored. 32-bit lengths suffice because a database file
// is megabytes at most, and parseFile refuses a header that says
// otherwise.
type entry struct {
	hash   uint64
	data   *byte
	length uint32
}

// newEntry is the entry of rec stored under hash.
func newEntry(hash uint64, rec []byte) entry {
	return entry{hash: hash, data: unsafe.SliceData(rec), length: uint32(len(rec))}
}

// record is the entry's record: the referenced bytes, capacity clipped
// to the length so no append can reach past them.
func (e entry) record() []byte { return unsafe.Slice(e.data, e.length) }

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

// New creates (or reopens) a database over the given flash store and
// mounts it there as the volume of its file names. A database reopened
// over a store that holds one of the same prefix and file count takes
// its files as they are; any other file under its names — one someone
// else wrote, or a database of another file count left — is plain bytes
// to it, parsed on first touch.
func New(store *flashsim.FileStore, cfg Config) (*DB, error) {
	if store == nil {
		return nil, fmt.Errorf("resultdb: store is required")
	}
	if cfg.Files <= 0 {
		return nil, fmt.Errorf("resultdb: file count must be positive, got %d", cfg.Files)
	}
	if cfg.Prefix == "" {
		cfg.Prefix = "psdb-"
	}
	if cfg.HeaderParseCost <= 0 {
		cfg.HeaderParseCost = DefaultHeaderParseCost
	}
	db := &DB{store: store, cfg: cfg}
	db.names = fileNames(cfg.Prefix, cfg.Files)
	if prev, ok := store.Volume(cfg.Prefix).(*volume); ok && prev.cfg.Files == cfg.Files {
		db.entries, db.files, db.raw, db.bytes = slices.Clone(prev.entries), slices.Clone(prev.files), maps.Clone(prev.raw), prev.bytes
	}
	store.Mount(cfg.Prefix, (*volume)(db))
	return db, nil
}

// nameTables interns the file-name slices shared by every database
// with the same prefix and file count — one table per configuration,
// not one per user.
var nameTables sync.Map // "prefix\x00files" -> []string

func fileNames(prefix string, files int) []string {
	key := fmt.Sprintf("%s\x00%d", prefix, files)
	if v, ok := nameTables.Load(key); ok {
		return v.([]string)
	}
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d.db", prefix, i)
	}
	v, _ := nameTables.LoadOrStore(key, names)
	return v.([]string)
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

// triple is one parsed header entry.
type triple struct {
	hash, off, length uint64
}

func parseHeader(line []byte) ([]triple, error) {
	s := strings.TrimSuffix(string(line), "\n")
	if s == "" {
		return nil, nil
	}
	ts := make([]triple, 0, strings.Count(s, ";")+1)
	for _, part := range strings.Split(s, ";") {
		fields := strings.Split(part, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("resultdb: malformed header triple %q", part)
		}
		hash, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("resultdb: bad header hash: %v", err)
		}
		off, err := strconv.ParseUint(fields[1], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("resultdb: bad header offset: %v", err)
		}
		length, err := strconv.ParseUint(fields[2], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("resultdb: bad header length: %v", err)
		}
		ts = append(ts, triple{hash, off, length})
	}
	return ts, nil
}

// parseFile reads a file held as plain bytes into a run of entries
// referencing records inside data, and its header line's length. The
// bytes must be what the database would write: the header in its own
// rendering, the records tiling the body in header order. Anything else
// is refused as corrupt, as a file without a header line always was.
func parseFile(name string, data []byte) ([]entry, int, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, 0, fmt.Errorf("resultdb: file %q has no header line", name)
	}
	ts, err := parseHeader(data[:nl+1])
	if err != nil {
		return nil, 0, err
	}
	body := data[nl+1:]
	es := make([]entry, len(ts))
	off := 0
	for k, t := range ts {
		if t.off != uint64(off) || t.length > uint64(len(body)-off) {
			return nil, 0, fmt.Errorf("resultdb: file %q: record %x is not where its header says", name, t.hash)
		}
		es[k] = newEntry(t.hash, body[off:off+int(t.length)])
		off += int(t.length)
	}
	if off != len(body) || !bytes.Equal(appendHeader(nil, es), data[:nl+1]) {
		return nil, 0, fmt.Errorf("resultdb: file %q is not in the database's format", name)
	}
	return es, nl + 1, nil
}

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
// and makes hdr file i's header length (zero deletes the file). The
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
// the file does not exist) without device-cost accounting, first parsing
// the file into the slab if it is held as plain bytes.
func (db *DB) file(i int) ([]entry, int, error) {
	lo, hi, hdr := db.run(i)
	if data, ok := db.raw[i]; ok {
		es, n, err := parseFile(db.names[i], data)
		if err != nil {
			return nil, 0, err
		}
		db.takeRaw(i)
		db.splice(i, lo, hi, es, n)
		hi, hdr = lo+len(es), n
	}
	return db.entries[lo:hi], hdr, nil
}

// loadCost is the modeled latency of reading a file's header: open the
// file, read the header pages, parse each entry. Body latency charging
// is left to the caller since most operations touch only one record.
func (db *DB) loadCost(es []entry, hdr int) time.Duration {
	dev := db.store.Device()
	if hdr == 0 {
		return dev.OpenCost()
	}
	return dev.OpenCost() + dev.ReadCost(hdr) + time.Duration(len(es))*db.cfg.HeaderParseCost
}

// Put stores a record under its result hash, appending it to its file
// and augmenting the header. Storing an existing hash again is a no-op
// (results are shared across queries and stored once — the paper's
// factor-of-8 storage saving). It returns the modeled flash latency.
// The database keeps record itself, not a copy: the caller must not
// modify it afterwards.
//
// The write is incremental: the new entry goes in at the end of its
// file's run, the header length grows by the new triple and its
// separator, and nothing is serialized, parsed or copied.
func (db *DB) Put(resultHash uint64, record []byte) (time.Duration, error) {
	i := db.FileOf(resultHash)
	es, hdr, err := db.file(i)
	if err != nil {
		return 0, err
	}
	lat := db.loadCost(es, hdr)
	if find(es, resultHash) >= 0 {
		return lat, nil
	}
	body := bodyLen(es)
	e := newEntry(resultHash, record)
	// The new header line is the stored one, its newline turned into the
	// ';' before the new triple, then the triple and a newline.
	newHdr := tripleLen(e, body) + 1
	if len(es) > 0 {
		newHdr += hdr
	}
	// The header line changes size, so it is rewritten in place
	// (charged as a flash rewrite); the record itself is an append.
	dev := db.store.Device()
	lat += dev.RewriteCost(newHdr) + dev.WriteCost(len(record))
	db.bytes += int64(newHdr - hdr + len(record))
	_, hi, _ := db.run(i)
	db.splice(i, hi, hi, []entry{e}, newHdr)
	return lat, nil
}

// Get retrieves the record stored under the result hash, with the
// modeled latency: open + header read + header parse + record pages.
// The returned slice is the caller's own copy; use GetView on paths that
// must not allocate.
func (db *DB) Get(resultHash uint64) ([]byte, time.Duration, error) {
	rec, lat, err := db.GetView(resultHash)
	if err != nil {
		return nil, lat, err
	}
	return append([]byte(nil), rec...), lat, nil
}

// GetView is Get without the copy: the returned slice is the stored
// record itself. The database never modifies a record, so a view stays
// valid after later writes, but it may be shared — with whoever handed
// it to Put and with every other database holding the same rendering —
// so callers must not modify it.
func (db *DB) GetView(resultHash uint64) ([]byte, time.Duration, error) {
	i := db.FileOf(resultHash)
	es, hdr, err := db.file(i)
	if err != nil {
		return nil, 0, err
	}
	lat := db.loadCost(es, hdr)
	k := find(es, resultHash)
	if k < 0 {
		return nil, lat, fmt.Errorf("resultdb: result %x not found in file %d", resultHash, i)
	}
	lat += db.store.Device().ReadCost(int(es[k].length))
	return es[k].record(), lat, nil
}

// Contains reports whether a record exists, without charging latency
// (existence is known from the DRAM hash table in the real system).
func (db *DB) Contains(resultHash uint64) bool {
	es, _, err := db.file(db.FileOf(resultHash))
	return err == nil && find(es, resultHash) >= 0
}

// parseRaw parses every file held as plain bytes that parses; the rest
// stay as they are.
func (db *DB) parseRaw() {
	for i := range db.raw {
		db.file(i)
	}
}

// Hashes returns every stored result hash in ascending order.
func (db *DB) Hashes() []uint64 {
	db.parseRaw()
	var out []uint64
	for _, e := range db.entries {
		out = append(out, e.hash)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of stored records.
func (db *DB) Len() int {
	db.parseRaw()
	return len(db.entries)
}

// Record is one result record and the hash it is stored under.
type Record struct {
	Hash uint64
	Data []byte
}

func byHash(a, b Record) int { return cmp.Compare(a.Hash, b.Hash) }

// ReplaceFile atomically replaces one database file's full record set
// — the patch-application primitive of the Section 5.4 update cycle.
// It returns the modeled flash latency of rewriting the file. Like Put,
// the database keeps the records' slices.
func (db *DB) ReplaceFile(i int, records map[uint64][]byte) (time.Duration, error) {
	recs := make([]Record, 0, len(records))
	for hash, data := range records {
		recs = append(recs, Record{hash, data})
	}
	return db.replace(i, recs)
}

// replace checks that recs may be file i's whole record set, orders them
// by hash and rewrites the file with them.
func (db *DB) replace(i int, recs []Record) (time.Duration, error) {
	if i < 0 || i >= db.cfg.Files {
		return 0, fmt.Errorf("resultdb: file index %d out of range [0, %d)", i, db.cfg.Files)
	}
	for _, r := range recs {
		if db.FileOf(r.Hash) != i {
			return 0, fmt.Errorf("resultdb: record %x does not belong in file %d", r.Hash, i)
		}
	}
	slices.SortFunc(recs, byHash)
	return db.rewrite(i, recs), nil
}

// rewrite installs recs — file i's records, ordered by hash — as the
// file's whole content and returns the modeled latency of the rewrite.
// A file held as plain bytes is replaced unread.
func (db *DB) rewrite(i int, recs []Record) time.Duration {
	es := make([]entry, len(recs))
	for k, r := range recs {
		es[k] = newEntry(r.Hash, r.Data)
	}
	hdr := lineLen(es)
	size := hdr + bodyLen(es)
	db.drop(i)
	lo, hi, _ := db.run(i)
	db.splice(i, lo, hi, es, hdr)
	db.bytes += int64(size)
	dev := db.store.Device()
	return dev.OpenCost() + dev.RewriteCost(size)
}

// drop deletes file i, in whichever form the database holds it, and
// reports whether it existed.
func (db *DB) drop(i int) bool {
	if data, ok := db.takeRaw(i); ok {
		db.bytes -= int64(len(data))
		return true
	}
	lo, hi, hdr := db.run(i)
	if hdr == 0 {
		return false
	}
	db.bytes -= int64(hdr + bodyLen(db.entries[lo:hi]))
	db.splice(i, lo, hi, nil, 0)
	return true
}

// takeRaw removes file i's plain bytes from raw and returns them.
func (db *DB) takeRaw(i int) ([]byte, bool) {
	data, ok := db.raw[i]
	if ok {
		if delete(db.raw, i); len(db.raw) == 0 {
			db.raw = nil
		}
	}
	return data, ok
}

// ReplaceAll makes the database hold exactly records (each hash at most
// once; the slice is reordered): every file whose record set differs is
// rewritten as ReplaceFile would, files already holding their share are
// left alone, and the summed latency of the rewrites is returned — the
// whole patch step of an update, or of a migrated user's import, in one
// pass over the records and none over the files they leave untouched.
func (db *DB) ReplaceAll(records []Record) (time.Duration, error) {
	slices.SortFunc(records, func(a, b Record) int {
		return cmp.Or(cmp.Compare(db.FileOf(a.Hash), db.FileOf(b.Hash)), byHash(a, b))
	})
	var total time.Duration
	for i := 0; i < db.cfg.Files; i++ {
		n := 0
		for n < len(records) && db.FileOf(records[n].Hash) == i {
			n++
		}
		next := records[:n]
		records = records[n:]
		es, hdr, err := db.file(i)
		if err != nil {
			return total, err
		}
		if !holds(es, hdr, next) {
			total += db.rewrite(i, next)
		}
	}
	return total, nil
}

// holds reports whether a file's record set is exactly recs, which are
// ordered by hash. A file that does not exist (hdr zero) holds nothing.
func holds(es []entry, hdr int, recs []Record) bool {
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
		if e.hash != recs[k].Hash || !bytes.Equal(e.record(), recs[k].Data) {
			return false
		}
	}
	return true
}

// Delete removes the record stored under resultHash, rewriting its
// database file without it. It reports whether the record existed and
// the modeled flash latency of the rewrite (zero when absent). The
// fleet layer uses this to reclaim personal-cache flash under a
// storage budget. The records that stay are the ones the file held, not
// copies.
func (db *DB) Delete(resultHash uint64) (time.Duration, bool, error) {
	i := db.FileOf(resultHash)
	es, _, err := db.file(i)
	if err != nil {
		return 0, false, err
	}
	if find(es, resultHash) < 0 {
		return 0, false, nil
	}
	recs := make([]Record, 0, len(es)-1)
	for _, e := range es {
		if e.hash != resultHash {
			recs = append(recs, Record{e.hash, e.record()})
		}
	}
	lat, err := db.replace(i, recs)
	if err != nil {
		return 0, false, err
	}
	return lat, true, nil
}

// RecordsOf returns copies of the records of one file keyed by hash —
// the server-side read when computing patches.
func (db *DB) RecordsOf(i int) (map[uint64][]byte, error) {
	es, _, err := db.file(i)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64][]byte, len(es))
	for _, e := range es {
		out[e.hash] = append([]byte(nil), e.record()...)
	}
	return out, nil
}

// LogicalBytes is the total size of the database files: a running
// total (see DB.bytes), not a scan.
func (db *DB) LogicalBytes() int64 { return db.bytes }

// sizes calls fn with the index and size of every database file.
func (db *DB) sizes(fn func(i, size int)) {
	for i := range db.files {
		if lo, hi, hdr := db.run(i); hdr != 0 {
			fn(i, hdr+bodyLen(db.entries[lo:hi]))
		}
	}
	for i, data := range db.raw {
		fn(i, len(data))
	}
}

// AllocatedBytes is the flash space the database occupies including
// allocation slack.
func (db *DB) AllocatedBytes() int64 {
	var n int64
	db.sizes(func(_, size int) { n += db.store.Device().AllocatedBytes(size) })
	return n
}

// FragmentationBytes is the allocation slack of the database — the
// quantity that grows with the file count in the Figure 12 tradeoff.
func (db *DB) FragmentationBytes() int64 {
	return db.AllocatedBytes() - db.LogicalBytes()
}

// volume is the database as its flash store sees it: the
// flashsim.Volume of its file names.
type volume DB

// index is the file index name stands for, or -1 when it is not one of
// the database's names.
func (v *volume) index(name string) int {
	rest, ok := strings.CutPrefix(name, v.cfg.Prefix)
	if !ok {
		return -1
	}
	rest, ok = strings.CutSuffix(rest, ".db")
	i, err := strconv.Atoi(rest)
	if !ok || err != nil || i < 0 || i >= v.cfg.Files || v.names[i] != name {
		return -1
	}
	return i
}

// Claims implements flashsim.Volume.
func (v *volume) Claims(name string) bool { return v.index(name) >= 0 }

// Size implements flashsim.Volume.
func (v *volume) Size(name string) (int, bool) {
	i := v.index(name)
	if data, ok := v.raw[i]; ok {
		return len(data), true
	}
	lo, hi, hdr := (*DB)(v).run(i)
	return hdr + bodyLen(v.entries[lo:hi]), hdr != 0
}

// AppendFile implements flashsim.Volume: the header line, then the
// records in header order.
func (v *volume) AppendFile(b []byte, name string) []byte {
	i := v.index(name)
	if data, ok := v.raw[i]; ok {
		return append(b, data...)
	}
	lo, hi, _ := (*DB)(v).run(i)
	b = appendHeader(b, v.entries[lo:hi])
	for _, e := range v.entries[lo:hi] {
		b = append(b, e.record()...)
	}
	return b
}

// Put implements flashsim.Volume: a file written from outside the
// database is held as the plain bytes it was given.
func (v *volume) Put(name string, data []byte) {
	db := (*DB)(v)
	i := v.index(name)
	db.drop(i)
	if db.raw == nil {
		db.raw = make(map[int][]byte)
	}
	db.raw[i] = data
	db.bytes += int64(len(data))
}

// Remove implements flashsim.Volume.
func (v *volume) Remove(name string) bool { return (*DB)(v).drop(v.index(name)) }

// Held implements flashsim.Volume.
func (v *volume) Held(names []string) []string {
	(*DB)(v).sizes(func(i, _ int) { names = append(names, v.names[i]) })
	return names
}
