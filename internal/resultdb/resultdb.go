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
// The database keeps each file as its parsed header with a reference to
// every record, not as a byte image: the flash store renders a file's
// plain text only when someone asks for it, and every size and cost is
// computed from the header entries exactly as the bytes would give it.
// A record is the very slice handed to Put (or ReplaceFile/ReplaceAll),
// so a fleet whose users cache the same result holds its bytes once.
package resultdb

import (
	"bytes"
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"pocketcloudlets/internal/flashsim"
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
	// names precomputes the file names so the retrieval path never
	// formats strings. The slice is interned across databases (see
	// fileNames): a million-user fleet holds one database per user and
	// they all name their files identically.
	names []string
	// files holds, by index, every file read or written so far — nil for
	// one not touched yet or absent — so repeated retrievals (the
	// cache-hit serve path) find and parse nothing. A pointer per file is
	// 256 B at the default 32 files, allocated with the first file found
	// or written: a fleet holds a database per user, and many users never
	// store a record. A write replaces its file's entry with the file it
	// just installed, so a write never causes a re-parse, and the modeled
	// latency is computed from the recorded header length, so a cached
	// retrieval charges exactly what an uncached one would.
	files []*file
	// bytes is the total size of the database files, kept current by
	// storeFile and seeded from the store in New. The database must be
	// the only writer of its files; a store changed from outside is
	// picked up by reopening it with New.
	bytes int64
}

// file is one database file as the database keeps it: the parsed header,
// each entry referencing its record. The records tile the body in header
// order — an entry's offset is the sum of the lengths before it — so the
// file's bytes are the header line followed by every record in turn, and
// the flash store renders them only when asked (file implements
// flashsim.Content). A file never changes: a write builds a new one, so
// a record view or a rendering taken from it outlives later writes.
type file struct {
	header
	hdrLen int32 // header line length including '\n'
}

// bodyLen is the length of the record area; zero for a file that does
// not exist.
func (f *file) bodyLen() int {
	if f == nil || len(f.entries) == 0 {
		return 0
	}
	return f.entries[len(f.entries)-1].end()
}

// Len implements flashsim.Content: the file's size in bytes.
func (f *file) Len() int { return int(f.hdrLen) + f.bodyLen() }

// AppendTo implements flashsim.Content: the header line, then the
// records in header order.
func (f *file) AppendTo(b []byte) []byte {
	b = f.appendTo(b)
	for _, e := range f.entries {
		b = append(b, e.record()...)
	}
	return b
}

// New creates (or reopens) a database over the given flash store.
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
	for _, name := range db.names {
		if sz, err := store.Size(name); err == nil {
			db.bytes += int64(sz)
		}
	}
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

// header is the parsed first line of a database file.
type header struct {
	entries []headerEntry
}

// headerEntry locates one record in the file body and references its
// bytes: data points at the record's first byte and length says how
// many follow. A bare pointer rather than a slice keeps an entry at 24
// bytes (a fleet holds tens of them per user); 32-bit offsets suffice
// because a database file is megabytes at most, and parseHeader refuses
// a header that says otherwise.
type headerEntry struct {
	hash        uint64
	off, length uint32
	data        *byte
}

// entryFor is the entry of rec stored under hash at body offset off.
func entryFor(hash uint64, off int, rec []byte) headerEntry {
	return headerEntry{hash: hash, off: uint32(off), length: uint32(len(rec)), data: unsafe.SliceData(rec)}
}

// record is the entry's record: the referenced bytes, capacity clipped
// to the length so no append can reach past them.
func (e headerEntry) record() []byte { return unsafe.Slice(e.data, e.length) }

// end is the body offset one past the record.
func (e headerEntry) end() int { return int(e.off) + int(e.length) }

// find looks a record up in the file's header; a nil receiver is a
// file that does not exist and holds nothing.
func (f *file) find(hash uint64) (headerEntry, bool) {
	if f == nil {
		return headerEntry{}, false
	}
	for _, e := range f.entries {
		if e.hash == hash {
			return e, true
		}
	}
	return headerEntry{}, false
}

// appendTriple renders one header entry as "hash,off,len" in hex.
func appendTriple(b []byte, e headerEntry) []byte {
	b = strconv.AppendUint(b, e.hash, 16)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(e.off), 16)
	b = append(b, ',')
	return strconv.AppendUint(b, uint64(e.length), 16)
}

// tripleLen is the length appendTriple renders e with.
func tripleLen(e headerEntry) int {
	return hexLen(e.hash) + hexLen(uint64(e.off)) + hexLen(uint64(e.length)) + 2
}

// appendTo appends the header line, "hash,off,len;...\n" in hex, to b.
func (h *header) appendTo(b []byte) []byte {
	for i, e := range h.entries {
		if i > 0 {
			b = append(b, ';')
		}
		b = appendTriple(b, e)
	}
	return append(b, '\n')
}

// lineLen is the header line's exact length, known from its numbers'
// widths before a digit is written: per entry three hex fields and two
// commas, a ';' between entries, and the newline.
func (h *header) lineLen() int {
	n := max(len(h.entries), 1) // the separators and the newline
	for _, e := range h.entries {
		n += tripleLen(e)
	}
	return n
}

// hexLen is the number of digits strconv renders x with in base 16.
func hexLen(x uint64) int { return max(1, (bits.Len64(x)+3)/4) }

func parseHeader(line []byte) (*header, error) {
	h := &header{}
	s := strings.TrimSuffix(string(line), "\n")
	if s == "" {
		return h, nil
	}
	h.entries = make([]headerEntry, 0, strings.Count(s, ";")+1)
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
		h.entries = append(h.entries, headerEntry{hash: hash, off: uint32(off), length: uint32(length)})
	}
	return h, nil
}

// parseFile reads a file the flash store holds as plain bytes — one the
// database did not install itself — into the database's form, its
// entries referencing records inside data. The bytes must be what the
// database would write: the header in its own rendering, the records
// tiling the body in header order. Anything else is refused as corrupt,
// as a file without a header line always was.
func parseFile(name string, data []byte) (*file, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("resultdb: file %q has no header line", name)
	}
	h, err := parseHeader(data[:nl+1])
	if err != nil {
		return nil, err
	}
	f := &file{header: *h, hdrLen: int32(nl + 1)}
	body := data[nl+1:]
	off := 0
	for k := range f.entries {
		e := &f.entries[k]
		if int(e.off) != off || e.end() > len(body) {
			return nil, fmt.Errorf("resultdb: file %q: record %x is not where its header says", name, e.hash)
		}
		e.data = unsafe.SliceData(body[e.off:e.end()])
		off = e.end()
	}
	if off != len(body) || !bytes.Equal(f.appendTo(nil), data[:nl+1]) {
		return nil, fmt.Errorf("resultdb: file %q is not in the database's format", name)
	}
	return f, nil
}

// file returns file i without device-cost accounting, reading it on
// first touch: the database's own file as the store holds it, or a
// parse of plain bytes someone else wrote. Nil when the file does not
// exist.
func (db *DB) file(i int) (*file, error) {
	if db.files != nil && db.files[i] != nil {
		return db.files[i], nil
	}
	name := db.names[i]
	c, ok := db.store.Content(name)
	if !ok {
		return nil, nil
	}
	f, own := c.(*file)
	if !own {
		data, _ := db.store.PeekRef(name)
		var err error
		if f, err = parseFile(name, data); err != nil {
			return nil, err
		}
	}
	db.keep(i, f)
	return f, nil
}

// keep makes f the database's file i.
func (db *DB) keep(i int, f *file) {
	if db.files == nil {
		db.files = make([]*file, db.cfg.Files)
	}
	db.files[i] = f
}

// loadFile is file plus the modeled latency of reading the header
// portion (open + header pages + per-entry parse CPU). Body latency
// charging is left to the caller since most operations touch only one
// record. The latency formula is evaluated whether or not the parse was
// cached, so caching never changes modeled costs.
func (db *DB) loadFile(i int) (*file, time.Duration, error) {
	f, err := db.file(i)
	if err != nil {
		return nil, 0, err
	}
	if f == nil {
		return nil, db.store.Device().OpenCost(), nil
	}
	// Model: open the file, read the header pages, parse each entry.
	lat := db.store.Device().OpenCost() +
		db.store.Device().ReadCost(int(f.hdrLen)) +
		time.Duration(len(f.entries))*db.cfg.HeaderParseCost
	return f, lat, nil
}

// Put stores a record under its result hash, appending it to its file
// and augmenting the header. Storing an existing hash again is a no-op
// (results are shared across queries and stored once — the paper's
// factor-of-8 storage saving). It returns the modeled flash latency.
// The database keeps record itself, not a copy: the caller must not
// modify it afterwards.
//
// The write is incremental: the new file is the stored header with one
// more entry, the header length grows by the new triple and its
// separator, and nothing is re-serialized, re-parsed or copied but the
// entries.
func (db *DB) Put(resultHash uint64, record []byte) (time.Duration, error) {
	i := db.FileOf(resultHash)
	f, lat, err := db.loadFile(i)
	if err != nil {
		return 0, err
	}
	if _, exists := f.find(resultHash); exists {
		return lat, nil
	}
	e := entryFor(resultHash, f.bodyLen(), record)
	// The new header line is the stored one, its newline turned into the
	// ';' before the new triple, then the triple and a newline.
	hdrLen := tripleLen(e) + 1
	var old []headerEntry
	if f != nil && len(f.entries) > 0 {
		old = f.entries
		hdrLen += int(f.hdrLen)
	}
	// Entries grow to exact capacity: a file gains a record or two over
	// a user's month, and append's doubling would be resident slack.
	entries := make([]headerEntry, len(old)+1)
	entries[copy(entries, old)] = e
	// The header line changes size, so it is rewritten in place
	// (charged as a flash rewrite); the record itself is an append.
	lat += db.store.Device().RewriteCost(hdrLen) + db.store.Device().WriteCost(len(record))
	db.storeFile(i, &file{header: header{entries: entries}, hdrLen: int32(hdrLen)})
	return lat, nil
}

// storeFile installs f as file i without charging device cost (costs are
// charged explicitly by callers). It is the single funnel every database
// write goes through (Put, and every rewrite): the store keeps f as the
// file's content, the database's own entry becomes f, and the running
// size total moves by the difference.
func (db *DB) storeFile(i int, f *file) {
	name := db.names[i]
	old, _ := db.store.Size(name) // zero for a file that does not exist yet
	db.bytes += int64(f.Len() - old)
	db.keep(i, f)
	db.store.ReplaceContent(name, f)
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
	f, lat, err := db.loadFile(i)
	if err != nil {
		return nil, 0, err
	}
	e, ok := f.find(resultHash)
	if !ok {
		return nil, lat, fmt.Errorf("resultdb: result %x not found in file %d", resultHash, i)
	}
	lat += db.store.Device().ReadCost(int(e.length))
	return e.record(), lat, nil
}

// Contains reports whether a record exists, without charging latency
// (existence is known from the DRAM hash table in the real system).
func (db *DB) Contains(resultHash uint64) bool {
	f, err := db.file(db.FileOf(resultHash))
	if err != nil {
		return false
	}
	_, found := f.find(resultHash)
	return found
}

// Hashes returns every stored result hash in ascending order.
func (db *DB) Hashes() []uint64 {
	var out []uint64
	for i := 0; i < db.cfg.Files; i++ {
		f, err := db.file(i)
		if err != nil || f == nil {
			continue
		}
		for _, e := range f.entries {
			out = append(out, e.hash)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of stored records.
func (db *DB) Len() int {
	n := 0
	for i := 0; i < db.cfg.Files; i++ {
		if f, err := db.file(i); err == nil && f != nil {
			n += len(f.entries)
		}
	}
	return n
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
func (db *DB) rewrite(i int, recs []Record) time.Duration {
	f := &file{header: header{entries: make([]headerEntry, len(recs))}}
	off := 0
	for k, r := range recs {
		f.entries[k] = entryFor(r.Hash, off, r.Data)
		off += len(r.Data)
	}
	f.hdrLen = int32(f.lineLen())
	lat := db.store.Device().OpenCost() + db.store.Device().RewriteCost(f.Len())
	db.storeFile(i, f)
	return lat
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
		f, err := db.file(i)
		if err != nil {
			return total, err
		}
		if !f.holds(next) {
			total += db.rewrite(i, next)
		}
	}
	return total, nil
}

// holds reports whether the file's record set is exactly recs, which
// are ordered by hash. A file that does not exist holds nothing.
func (f *file) holds(recs []Record) bool {
	if f == nil {
		return len(recs) == 0
	}
	if len(f.entries) != len(recs) {
		return false
	}
	// The header is in insertion order; compare in hash order.
	entries := slices.Clone(f.entries)
	slices.SortFunc(entries, func(a, b headerEntry) int { return cmp.Compare(a.hash, b.hash) })
	for k, e := range entries {
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
	f, err := db.file(i)
	if err != nil {
		return 0, false, err
	}
	if _, ok := f.find(resultHash); !ok {
		return 0, false, nil
	}
	recs := make([]Record, 0, len(f.entries)-1)
	for _, e := range f.entries {
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
	out := make(map[uint64][]byte)
	f, err := db.file(i)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return out, nil
	}
	for _, e := range f.entries {
		out[e.hash] = append([]byte(nil), e.record()...)
	}
	return out, nil
}

// LogicalBytes is the total size of the database files: a running
// total (see DB.bytes), not a scan.
func (db *DB) LogicalBytes() int64 { return db.bytes }

// AllocatedBytes is the flash space the database occupies including
// allocation slack.
func (db *DB) AllocatedBytes() int64 {
	var n int64
	for _, name := range db.names {
		if sz, err := db.store.Size(name); err == nil {
			n += db.store.Device().AllocatedBytes(sz)
		}
	}
	return n
}

// FragmentationBytes is the allocation slack of the database — the
// quantity that grows with the file count in the Figure 12 tradeoff.
func (db *DB) FragmentationBytes() int64 {
	return db.AllocatedBytes() - db.LogicalBytes()
}
