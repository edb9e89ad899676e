package resultdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pocketcloudlets/internal/flashsim"
)

func newDB(t testing.TB, files int) *DB {
	t.Helper()
	store := flashsim.NewFileStore(flashsim.NewDevice(flashsim.Params{}))
	db, err := New(store, Config{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewValidation(t *testing.T) {
	store := flashsim.NewFileStore(flashsim.NewDevice(flashsim.Params{}))
	if _, err := New(nil, Config{Files: 32}); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := New(store, Config{Files: 0}); err == nil {
		t.Error("zero files should fail")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	db := newDB(t, 32)
	rec := []byte("Title\x1fwww.example.com\x1fexample.com\x1fSnippet text")
	if _, err := db.Put(12345, rec); err != nil {
		t.Fatal(err)
	}
	got, lat, err := db.Get(12345)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Errorf("got %q, want %q", got, rec)
	}
	if lat <= 0 {
		t.Error("retrieval latency should be positive")
	}
}

func TestPutIdempotent(t *testing.T) {
	db := newDB(t, 8)
	rec := []byte("record")
	db.Put(7, rec)
	db.Put(7, []byte("different content ignored"))
	got, _, err := db.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Errorf("second Put overwrote the record: %q", got)
	}
	if db.Len() != 1 {
		t.Errorf("len = %d, want 1", db.Len())
	}
}

func TestGetMissing(t *testing.T) {
	db := newDB(t, 8)
	if _, _, err := db.Get(99); err == nil {
		t.Error("Get of missing record should fail")
	}
	db.Put(99, []byte("x"))
	// Same file, different hash.
	if _, _, err := db.Get(99 + 8); err == nil {
		t.Error("Get of missing record in populated file should fail")
	}
}

func TestFileAssignment(t *testing.T) {
	db := newDB(t, 32)
	for h := uint64(0); h < 200; h++ {
		if got := db.FileOf(h); got != int(h%32) {
			t.Fatalf("FileOf(%d) = %d, want %d", h, got, h%32)
		}
	}
}

func TestManyRecordsAcrossFiles(t *testing.T) {
	db := newDB(t, 32)
	r := rand.New(rand.NewSource(5))
	want := map[uint64][]byte{}
	for i := 0; i < 500; i++ {
		h := r.Uint64()
		rec := []byte(fmt.Sprintf("record-%d-%d", i, h))
		want[h] = rec
		if _, err := db.Put(h, rec); err != nil {
			t.Fatal(err)
		}
	}
	if db.Len() != len(want) {
		t.Fatalf("len = %d, want %d", db.Len(), len(want))
	}
	for h, rec := range want {
		got, _, err := db.Get(h)
		if err != nil {
			t.Fatalf("Get(%x): %v", h, err)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("Get(%x) = %q, want %q", h, got, rec)
		}
	}
	if got := len(db.Hashes()); got != len(want) {
		t.Errorf("Hashes() returned %d, want %d", got, len(want))
	}
}

func TestContains(t *testing.T) {
	db := newDB(t, 4)
	if db.Contains(5) {
		t.Error("empty db should not contain anything")
	}
	db.Put(5, []byte("x"))
	if !db.Contains(5) || db.Contains(9) {
		t.Error("Contains mismatch")
	}
}

// TestRetrievalTimeFallsWithFileCount verifies the Figure 12 shape:
// with a fixed record population, retrieving a record is slower with
// fewer files (long headers) and fragmentation grows with more files.
func TestRetrievalTimeFallsWithFileCount(t *testing.T) {
	const records = 2500
	rec := make([]byte, 500)
	lat := map[int]time.Duration{}
	frag := map[int]int64{}
	for _, files := range []int{1, 32, 256} {
		db := newDB(t, files)
		for i := 0; i < records; i++ {
			if _, err := db.Put(uint64(i)*2654435761, rec); err != nil {
				t.Fatal(err)
			}
		}
		var total time.Duration
		const probes = 50
		for i := 0; i < probes; i++ {
			_, l, err := db.Get(uint64(i*37) * 2654435761)
			if err != nil {
				t.Fatal(err)
			}
			total += l
		}
		lat[files] = total / probes
		frag[files] = db.FragmentationBytes()
	}
	if !(lat[1] > lat[32] && lat[32] >= lat[256]) {
		t.Errorf("latency should fall with file count: %v", lat)
	}
	if !(frag[1] <= frag[32] && frag[32] < frag[256]) {
		t.Errorf("fragmentation should grow with file count: %v", frag)
	}
	// Table 4 calibration: with 32 files, fetching two results ~10 ms.
	twoFetch := 2 * lat[32]
	if twoFetch < 5*time.Millisecond || twoFetch > 18*time.Millisecond {
		t.Errorf("two-result fetch at 32 files = %v, want ~10 ms", twoFetch)
	}
}

func TestReplaceFileAndRecordsOf(t *testing.T) {
	db := newDB(t, 4)
	db.Put(0, []byte("old0"))
	db.Put(4, []byte("old4"))
	db.Put(1, []byte("other-file"))

	newRecs := map[uint64][]byte{
		8:  []byte("new8"),
		12: []byte("new12"),
	}
	if _, err := db.ReplaceFile(0, newRecs); err != nil {
		t.Fatal(err)
	}
	// Old file-0 records replaced.
	if db.Contains(0) || db.Contains(4) {
		t.Error("old records should be gone after ReplaceFile")
	}
	got, _, err := db.Get(8)
	if err != nil || !bytes.Equal(got, []byte("new8")) {
		t.Errorf("Get(8) = %q, %v", got, err)
	}
	// Other files untouched.
	if !db.Contains(1) {
		t.Error("other files should be untouched")
	}
	recs := db.RecordsOf(0)
	if len(recs) != 2 || !bytes.Equal(recs[12], []byte("new12")) {
		t.Errorf("RecordsOf(0) = %v", recs)
	}
}

func TestReplaceFileValidation(t *testing.T) {
	db := newDB(t, 4)
	if _, err := db.ReplaceFile(9, nil); err == nil {
		t.Error("out-of-range file index should fail")
	}
	if _, err := db.ReplaceFile(0, map[uint64][]byte{1: []byte("x")}); err == nil {
		t.Error("record belonging to another file should fail")
	}
}

func TestRecordsOfEmptyFile(t *testing.T) {
	db := newDB(t, 4)
	if recs := db.RecordsOf(2); len(recs) != 0 {
		t.Errorf("RecordsOf on empty file = %v", recs)
	}
}

func TestAccountingConsistency(t *testing.T) {
	db := newDB(t, 16)
	for i := 0; i < 100; i++ {
		db.Put(uint64(i)*7919, make([]byte, 100+i))
	}
	if db.LogicalBytes() <= 0 {
		t.Error("logical bytes should be positive")
	}
	if db.AllocatedBytes() < db.LogicalBytes() {
		t.Error("allocated must be >= logical")
	}
	if db.FragmentationBytes() != db.AllocatedBytes()-db.LogicalBytes() {
		t.Error("fragmentation identity violated")
	}
}

// TestHeaderSerializationRoundTrip holds the header arithmetic to the
// rendering: lineLen is the length appendHeader writes, and the line is
// the legacy format, "hash,off,len" in hex, ';' between two, offsets the
// running sum of the lengths.
func TestHeaderSerializationRoundTrip(t *testing.T) {
	f := func(hashes []uint64, sizes []uint16) bool {
		es := make([]entry, min(len(hashes), len(sizes)))
		triples := make([]string, len(es))
		off := 0
		for i := range es {
			es[i] = entry{hash: hashes[i], length: uint32(sizes[i])}
			triples[i] = fmt.Sprintf("%x,%x,%x", hashes[i], off, sizes[i])
			off += int(sizes[i])
		}
		line := appendHeader(make([]byte, 0, lineLen(es)), es)
		return len(line) == lineLen(es) && cap(line) == len(line) && string(line) == strings.Join(triples, ";")+"\n"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGet(b *testing.B) {
	store := flashsim.NewFileStore(flashsim.NewDevice(flashsim.Params{}))
	db, err := New(store, Config{Files: 32})
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 500)
	for i := 0; i < 2500; i++ {
		if _, err := db.Put(uint64(i)*2654435761, rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Get(uint64(i%2500) * 2654435761); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEntryLayout holds a header entry to 16 bytes with no pointer in it.
// A user's database is one slab of entries, the "result database entry
// slab" row of DESIGN.md's "Measured bytes per user": every byte more is
// paid per stored record by every resident user, and a pointer field
// would send the collector through every user's slab again.
func TestEntryLayout(t *testing.T) {
	typ := reflect.TypeOf(entry{})
	if typ.Size() > 16 {
		t.Errorf("entry is %d B, at most 16 allowed: re-measure cold_fill's heap per user before growing it", typ.Size())
	}
	if path := pointerIn(typ, "entry"); path != "" {
		t.Errorf("%s holds a pointer: the collector would scan every user's entry slab", path)
	}
}

// pointerIn is the path of the first field of typ that is or holds a
// pointer, or "".
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerIn(typ.Field(i).Type, path+"."+typ.Field(i).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path
	}
}
