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
	// cache holds the parsed header and a no-copy view of each file
	// read or written so far, so repeated retrievals (the cache-hit
	// serve path) parse and allocate nothing. It is a slice sorted by
	// file index, grown one exact-capacity element per file, because a
	// typical per-user database occupies only some of its files and a
	// fleet holds a database per user: an eager per-file array costs
	// ~2 KB per user at the default 32 files, and a map of pointers a
	// third more than this slice. Only files that exist are cached.
	// Entries are replaced by storeFile — the single funnel every
	// database write goes through — with the parse of what it just
	// wrote, so a write never causes a re-parse, and the modeled latency
	// is computed from the recorded header length, so a cached
	// retrieval charges exactly what an uncached one would.
	cache []fileCache
	// bytes is the total size of the database files, kept current by
	// storeFile and seeded from the store in New. The database must be
	// the only writer of its files; a store changed from outside is
	// picked up by reopening it with New.
	bytes int64
}

// fileCache is one existing file's parsed state. data is the very
// slice the store holds (storeFile hands the store a fresh slice and
// keeps a view; nothing ever writes into it), so every view handed out
// from it — GetView, the store's PeekRef — is valid until the file's
// next write, which installs a new slice and leaves the old one to its
// remaining holders.
type fileCache struct {
	file   int32 // file index, the sort key of DB.cache
	hdrLen int32 // header line length including '\n'
	hdr    header
	data   []byte // the whole file: header line, then the body
}

// body is the record area the header's offsets index.
func (fc *fileCache) body() []byte { return fc.data[fc.hdrLen:] }

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

// cachePos returns the position of file i in the sorted cache, or the
// position it would be inserted at.
func (db *DB) cachePos(i int) (pos int, found bool) {
	lo, hi := 0, len(db.cache)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(db.cache[mid].file) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(db.cache) && int(db.cache[lo].file) == i
}

// setCache installs file i's parsed state at its sorted position. A
// new file grows the slice by exactly one element: the per-user
// database gains a file a handful of times in its life, and append's
// doubling would be resident slack in every one of a fleet's users.
func (db *DB) setCache(fc fileCache) *fileCache {
	pos, found := db.cachePos(int(fc.file))
	if !found {
		grown := db.cache[:min(len(db.cache)+1, cap(db.cache))] // room ReplaceAll reserved
		if len(grown) == len(db.cache) {
			grown = make([]fileCache, len(db.cache)+1)
			copy(grown, db.cache[:pos])
		}
		copy(grown[pos+1:], db.cache[pos:])
		db.cache = grown
	}
	db.cache[pos] = fc
	return &db.cache[pos]
}

// Files returns the configured file count.
func (db *DB) Files() int { return db.cfg.Files }

// FileOf returns the file index a result hash is assigned to: the
// remainder of the hash divided by the file count (Section 5.2.2).
func (db *DB) FileOf(resultHash uint64) int {
	return int(resultHash % uint64(db.cfg.Files))
}

func (db *DB) fileName(i int) string { return db.names[i] }

// header is the parsed first line of a database file.
type header struct {
	entries []headerEntry
}

// headerEntry locates one record in the file body. 32-bit offsets keep
// an entry at 16 bytes (a fleet holds tens of them per user): a
// database file is megabytes at most, and parseHeader refuses a header
// that says otherwise.
type headerEntry struct {
	hash        uint64
	off, length uint32
}

// end is the body offset one past the record.
func (e headerEntry) end() int { return int(e.off) + int(e.length) }

// find looks a record up in the file's header; a nil receiver is a
// file that does not exist and holds nothing.
func (fc *fileCache) find(hash uint64) (headerEntry, bool) {
	if fc == nil {
		return headerEntry{}, false
	}
	for _, e := range fc.hdr.entries {
		if e.hash == hash {
			return e, true
		}
	}
	return headerEntry{}, false
}

// maxTripleLen bounds one rendered header triple with its separator:
// ';' and three 64-bit hex fields joined by two commas.
const maxTripleLen = 1 + 3*16 + 2

// appendTriple renders one header entry as "hash,off,len" in hex.
func appendTriple(b []byte, e headerEntry) []byte {
	b = strconv.AppendUint(b, e.hash, 16)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(e.off), 16)
	b = append(b, ',')
	return strconv.AppendUint(b, uint64(e.length), 16)
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
		n += hexLen(e.hash) + hexLen(uint64(e.off)) + hexLen(uint64(e.length)) + 2
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

// file returns file i's parsed state without device-cost accounting,
// parsing it on first touch; nil when the file does not exist. The
// pointer is valid until the next file enters the cache.
func (db *DB) file(i int) (*fileCache, error) {
	if pos, found := db.cachePos(i); found {
		return &db.cache[pos], nil
	}
	name := db.fileName(i)
	data, ok := db.store.PeekRef(name)
	if !ok {
		return nil, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("resultdb: file %q has no header line", name)
	}
	h, err := parseHeader(data[:nl+1])
	if err != nil {
		return nil, err
	}
	return db.setCache(fileCache{file: int32(i), hdrLen: int32(nl + 1), hdr: *h, data: data}), nil
}

// loadFile is file plus the modeled latency of reading the header
// portion (open + header pages + per-entry parse CPU). Body latency
// charging is left to the caller since most operations touch only one
// record. The latency formula is evaluated whether or not the parse was
// cached, so caching never changes modeled costs.
func (db *DB) loadFile(i int) (*fileCache, time.Duration, error) {
	fc, err := db.file(i)
	if err != nil {
		return nil, 0, err
	}
	if fc == nil {
		return nil, db.store.Device().OpenCost(), nil
	}
	// Model: open the file, read the header pages, parse each entry.
	lat := db.store.Device().OpenCost() +
		db.store.Device().ReadCost(int(fc.hdrLen)) +
		time.Duration(len(fc.hdr.entries))*db.cfg.HeaderParseCost
	return fc, lat, nil
}

// Put stores a record under its result hash, appending it to its file
// and augmenting the header. Storing an existing hash again is a no-op
// (results are shared across queries and stored once — the paper's
// factor-of-8 storage saving). It returns the modeled flash latency.
// The record is copied; the caller keeps ownership of it.
//
// The write is incremental: the new file is the stored header line
// extended by one triple, the stored body and the record, built in a
// single allocation, and the parsed header gains one entry — nothing
// is re-serialized and nothing is re-parsed.
func (db *DB) Put(resultHash uint64, record []byte) (time.Duration, error) {
	i := db.FileOf(resultHash)
	fc, lat, err := db.loadFile(i)
	if err != nil {
		return 0, err
	}
	if _, exists := fc.find(resultHash); exists {
		return lat, nil
	}
	// The stored header line minus its newline, the body and the parsed
	// entries; all empty for a new file.
	var (
		line, body []byte
		old        []headerEntry
	)
	if fc != nil {
		line, body, old = fc.data[:fc.hdrLen-1], fc.body(), fc.hdr.entries
	}
	e := headerEntry{hash: resultHash, off: uint32(len(body)), length: uint32(len(record))}
	var tb [maxTripleLen]byte
	triple := tb[:0]
	if len(old) > 0 {
		triple = append(triple, ';')
	}
	triple = appendTriple(triple, e)
	hdrLen := len(line) + len(triple) + 1
	// One exactly sized allocation (and Join does not zero it first).
	data := bytes.Join([][]byte{line, triple, {'\n'}, body, record}, nil)
	// Entries grow to exact capacity: a file gains a record or two over
	// a user's month, and append's doubling would be resident slack.
	entries := make([]headerEntry, len(old)+1)
	entries[copy(entries, old)] = e
	// The header line changes size, so it is rewritten in place
	// (charged as a flash rewrite); the record itself is an append.
	lat += db.store.Device().RewriteCost(hdrLen) + db.store.Device().WriteCost(len(record))
	db.storeFile(i, header{entries: entries}, data, hdrLen)
	return lat, nil
}

// storeFile installs a file's new content — data is the header line of
// hdrLen bytes that renders h, then the body — without charging device
// cost (costs are charged explicitly by callers). It is the single
// funnel every database write goes through (Put, ReplaceFile, and
// Delete via ReplaceFile): the store takes ownership of data, the file
// cache becomes a view of it, and the running size total moves by the
// difference. The caller must not touch data afterwards.
func (db *DB) storeFile(i int, h header, data []byte, hdrLen int) {
	name := db.fileName(i)
	old, _ := db.store.Size(name) // zero for a file that does not exist yet
	db.bytes += int64(len(data) - old)
	db.setCache(fileCache{file: int32(i), hdrLen: int32(hdrLen), hdr: h, data: data})
	db.store.ReplaceSilently(name, data)
}

// Get retrieves the record stored under the result hash, with the
// modeled latency: open + header read + header parse + record pages.
// The returned slice is a copy; use GetView on paths that must not
// allocate.
func (db *DB) Get(resultHash uint64) ([]byte, time.Duration, error) {
	rec, lat, err := db.GetView(resultHash)
	if err != nil {
		return nil, lat, err
	}
	return append([]byte(nil), rec...), lat, nil
}

// GetView is Get without the copy: the returned slice is a read-only
// view into the database's cached file body and is valid only until
// the next write to the record's file. Callers must not modify or
// retain it.
func (db *DB) GetView(resultHash uint64) ([]byte, time.Duration, error) {
	i := db.FileOf(resultHash)
	fc, lat, err := db.loadFile(i)
	if err != nil {
		return nil, 0, err
	}
	e, ok := fc.find(resultHash)
	if !ok {
		return nil, lat, fmt.Errorf("resultdb: result %x not found in file %d", resultHash, i)
	}
	body := fc.body()
	if e.end() > len(body) {
		return nil, lat, fmt.Errorf("resultdb: corrupt header entry for %x", resultHash)
	}
	lat += db.store.Device().ReadCost(int(e.length))
	return body[e.off:e.end()], lat, nil
}

// Contains reports whether a record exists, without charging latency
// (existence is known from the DRAM hash table in the real system).
func (db *DB) Contains(resultHash uint64) bool {
	fc, err := db.file(db.FileOf(resultHash))
	if err != nil {
		return false
	}
	_, found := fc.find(resultHash)
	return found
}

// Hashes returns every stored result hash in ascending order.
func (db *DB) Hashes() []uint64 {
	var out []uint64
	for i := 0; i < db.cfg.Files; i++ {
		fc, err := db.file(i)
		if err != nil || fc == nil {
			continue
		}
		for _, e := range fc.hdr.entries {
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
		if fc, err := db.file(i); err == nil && fc != nil {
			n += len(fc.hdr.entries)
		}
	}
	return n
}

// Record is one result record and the hash it is stored under.
type Record struct {
	Hash uint64
	Data []byte
}

// ReplaceFile atomically replaces one database file's full record set
// — the patch-application primitive of the Section 5.4 update cycle.
// It returns the modeled flash latency of rewriting the file.
func (db *DB) ReplaceFile(i int, records map[uint64][]byte) (time.Duration, error) {
	if i < 0 || i >= db.cfg.Files {
		return 0, fmt.Errorf("resultdb: file index %d out of range [0, %d)", i, db.cfg.Files)
	}
	recs := make([]Record, 0, len(records))
	for hash, data := range records {
		if db.FileOf(hash) != i {
			return 0, fmt.Errorf("resultdb: record %x does not belong in file %d", hash, i)
		}
		recs = append(recs, Record{hash, data})
	}
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Hash, b.Hash) })
	return db.rewrite(i, recs), nil
}

// rewrite installs recs — file i's records, ordered by hash — as the
// file's whole content, built in one exactly sized allocation, and
// returns the modeled latency of the rewrite.
func (db *DB) rewrite(i int, recs []Record) time.Duration {
	h := header{entries: make([]headerEntry, len(recs))}
	bodyLen := 0
	for k, r := range recs {
		h.entries[k] = headerEntry{hash: r.Hash, off: uint32(bodyLen), length: uint32(len(r.Data))}
		bodyLen += len(r.Data)
	}
	hdrLen := h.lineLen()
	data := h.appendTo(make([]byte, 0, hdrLen+bodyLen))
	for _, r := range recs {
		data = append(data, r.Data...)
	}
	lat := db.store.Device().OpenCost() + db.store.Device().RewriteCost(len(data))
	db.storeFile(i, h, data, hdrLen)
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
		return cmp.Or(cmp.Compare(db.FileOf(a.Hash), db.FileOf(b.Hash)), cmp.Compare(a.Hash, b.Hash))
	})
	// Every file with a record ends this call cached; make the room for
	// the new ones once, and exactly (see setCache).
	room := 0
	for k, r := range records {
		if f := db.FileOf(r.Hash); k == 0 || f != db.FileOf(records[k-1].Hash) {
			if _, cached := db.cachePos(f); !cached {
				room++
			}
		}
	}
	if cap(db.cache)-len(db.cache) < room {
		db.cache = append(make([]fileCache, 0, len(db.cache)+room), db.cache...)
	}
	var total time.Duration
	for i := 0; i < db.cfg.Files; i++ {
		n := 0
		for n < len(records) && db.FileOf(records[n].Hash) == i {
			n++
		}
		next := records[:n]
		records = records[n:]
		fc, err := db.file(i)
		if err != nil {
			return total, err
		}
		same, err := fc.holds(next)
		if err != nil {
			return total, fmt.Errorf("%w in file %d", err, i)
		}
		if !same {
			total += db.rewrite(i, next)
		}
	}
	return total, nil
}

// holds reports whether the file's record set is exactly recs, which
// are ordered by hash. A file that does not exist holds nothing.
func (fc *fileCache) holds(recs []Record) (bool, error) {
	if fc == nil {
		return len(recs) == 0, nil
	}
	body := fc.body()
	for _, e := range fc.hdr.entries {
		if e.end() > len(body) {
			return false, fmt.Errorf("resultdb: corrupt entry %x", e.hash)
		}
	}
	if len(fc.hdr.entries) != len(recs) {
		return false, nil
	}
	// The header is in insertion order; compare in hash order.
	entries := slices.Clone(fc.hdr.entries)
	slices.SortFunc(entries, func(a, b headerEntry) int { return cmp.Compare(a.hash, b.hash) })
	for k, e := range entries {
		if e.hash != recs[k].Hash || !bytes.Equal(body[e.off:e.end()], recs[k].Data) {
			return false, nil
		}
	}
	return true, nil
}

// Delete removes the record stored under resultHash, rewriting its
// database file without it. It reports whether the record existed and
// the modeled flash latency of the rewrite (zero when absent). The
// fleet layer uses this to reclaim personal-cache flash under a
// storage budget.
func (db *DB) Delete(resultHash uint64) (time.Duration, bool, error) {
	f := db.FileOf(resultHash)
	recs, err := db.RecordsOf(f)
	if err != nil {
		return 0, false, err
	}
	if _, ok := recs[resultHash]; !ok {
		return 0, false, nil
	}
	delete(recs, resultHash)
	lat, err := db.ReplaceFile(f, recs)
	if err != nil {
		return 0, false, err
	}
	return lat, true, nil
}

// RecordsOf returns the records of one file keyed by hash — the
// server-side read when computing patches.
func (db *DB) RecordsOf(i int) (map[uint64][]byte, error) {
	out := make(map[uint64][]byte)
	fc, err := db.file(i)
	if err != nil {
		return nil, err
	}
	if fc == nil {
		return out, nil
	}
	body := fc.body()
	for _, e := range fc.hdr.entries {
		if e.end() > len(body) {
			return nil, fmt.Errorf("resultdb: corrupt entry %x in file %d", e.hash, i)
		}
		out[e.hash] = append([]byte(nil), body[e.off:e.end()]...)
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
	for i := 0; i < db.cfg.Files; i++ {
		if sz, err := db.store.Size(db.fileName(i)); err == nil {
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
