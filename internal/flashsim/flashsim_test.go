package flashsim

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultsFilled(t *testing.T) {
	d := NewDevice(Params{})
	def := DefaultParams()
	if d.Params() != def {
		t.Errorf("zero params not filled with defaults: %+v", d.Params())
	}
}

func TestReadCostPageGranularity(t *testing.T) {
	d := NewDevice(Params{PageSize: 2048, PageReadLatency: 100 * time.Microsecond})
	cases := []struct {
		bytes int
		pages int64
	}{{0, 0}, {1, 1}, {2048, 1}, {2049, 2}, {10000, 5}}
	for _, c := range cases {
		d.ResetStats()
		got := d.ReadCost(c.bytes)
		want := time.Duration(c.pages) * 100 * time.Microsecond
		if got != want {
			t.Errorf("ReadCost(%d) = %v, want %v", c.bytes, got, want)
		}
		if d.Stats().PageReads != c.pages {
			t.Errorf("ReadCost(%d): %d page reads, want %d", c.bytes, d.Stats().PageReads, c.pages)
		}
	}
}

func TestLatencyMonotoneInSize(t *testing.T) {
	d := NewDevice(Params{})
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return d.ReadCost(x) <= d.ReadCost(y) && d.WriteCost(x) <= d.WriteCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRewriteChargesErases(t *testing.T) {
	d := NewDevice(Params{})
	d.RewriteCost(1)
	if d.Stats().BlockErases != 1 {
		t.Errorf("rewrite of 1 byte: %d erases, want 1", d.Stats().BlockErases)
	}
	d.ResetStats()
	// 64 pages/block * 2048 B/page = 128 KiB per block; 300 KiB -> 3 blocks.
	d.RewriteCost(300 * 1024)
	if d.Stats().BlockErases != 3 {
		t.Errorf("rewrite of 300 KiB: %d erases, want 3", d.Stats().BlockErases)
	}
}

func TestAllocatedBytesRounding(t *testing.T) {
	d := NewDevice(Params{AllocUnit: 4096})
	cases := []struct {
		size int
		want int64
	}{{0, 0}, {-4, 0}, {1, 4096}, {500, 4096}, {4096, 4096}, {4097, 8192}}
	for _, c := range cases {
		if got := d.AllocatedBytes(c.size); got != c.want {
			t.Errorf("AllocatedBytes(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// TestPaperFragmentationClaim reproduces the Section 5.2.2 observation:
// a 500-byte search result stored as its own file occupies 4, 8 or 16
// times its size depending on the allocation unit.
func TestPaperFragmentationClaim(t *testing.T) {
	for _, unit := range []int{2048, 4096, 8192} {
		d := NewDevice(Params{AllocUnit: unit})
		got := d.AllocatedBytes(500)
		if got != int64(unit) {
			t.Errorf("unit %d: allocated %d, want %d", unit, got, unit)
		}
		if factor := got / 500; factor < 4 || factor > 16 {
			t.Errorf("unit %d: expansion factor %d outside the paper's 4-16x", unit, factor)
		}
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	base := NewDevice(Params{}).ReadCost(2048)
	d1 := NewDevice(Params{JitterFrac: 0.2, Seed: 7})
	d2 := NewDevice(Params{JitterFrac: 0.2, Seed: 7})
	for i := 0; i < 100; i++ {
		a := d1.ReadCost(2048)
		b := d2.ReadCost(2048)
		if a != b {
			t.Fatal("jitter not deterministic for equal seeds")
		}
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if a < lo || a > hi {
			t.Fatalf("jittered latency %v outside [%v, %v]", a, lo, hi)
		}
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs := NewFileStore(NewDevice(Params{}))
	if fs.Exists("a") {
		t.Fatal("file should not exist yet")
	}
	fs.Write("a", []byte("hello"))
	fs.Append("a", []byte(" world"))
	data, lat, err := fs.Read("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello world")) {
		t.Errorf("read %q, want %q", data, "hello world")
	}
	if lat <= 0 {
		t.Error("read latency should be positive")
	}
	if sz, _ := fs.Size("a"); sz != 11 {
		t.Errorf("size = %d, want 11", sz)
	}
}

func TestFileStoreReadAt(t *testing.T) {
	fs := NewFileStore(NewDevice(Params{}))
	fs.Write("f", []byte("0123456789"))
	data, _, err := fs.ReadAt("f", 3, 4)
	if err != nil || string(data) != "3456" {
		t.Errorf("ReadAt(3,4) = %q, %v", data, err)
	}
	data, _, err = fs.ReadAt("f", 8, 100) // past end: truncated
	if err != nil || string(data) != "89" {
		t.Errorf("ReadAt(8,100) = %q, %v", data, err)
	}
	if _, _, err := fs.ReadAt("f", 11, 1); err == nil {
		t.Error("ReadAt past end offset should fail")
	}
	if _, _, err := fs.ReadAt("missing", 0, 1); err == nil {
		t.Error("ReadAt on missing file should fail")
	}
}

func TestFileStoreMissingFileErrors(t *testing.T) {
	fs := NewFileStore(NewDevice(Params{}))
	if _, _, err := fs.Read("nope"); err == nil {
		t.Error("Read of missing file should fail")
	} else {
		var nx *ErrNotExist
		if !errors.As(err, &nx) || nx.Name != "nope" {
			t.Errorf("want ErrNotExist{nope}, got %v", err)
		}
	}
	if err := fs.Delete("nope"); err == nil {
		t.Error("Delete of missing file should fail")
	}
}

func TestFileStoreAccounting(t *testing.T) {
	fs := NewFileStore(NewDevice(Params{AllocUnit: 4096}))
	fs.Write("a", make([]byte, 500))
	fs.Write("b", make([]byte, 500))
	fs.Write("c", make([]byte, 9000))
	if got := fs.LogicalBytes(); got != 10000 {
		t.Errorf("logical = %d, want 10000", got)
	}
	// a: 4096, b: 4096, c: 12288 -> 20480 allocated.
	if got := fs.AllocatedBytes(); got != 20480 {
		t.Errorf("allocated = %d, want 20480", got)
	}
	if got := fs.FragmentationBytes(); got != 10480 {
		t.Errorf("fragmentation = %d, want 10480", got)
	}
	if err := fs.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if got := fs.LogicalBytes(); got != 1000 {
		t.Errorf("logical after delete = %d, want 1000", got)
	}
}

func TestFragmentationProperties(t *testing.T) {
	f := func(sizes []uint16) bool {
		fs := NewFileStore(NewDevice(Params{AllocUnit: 4096}))
		for i, s := range sizes {
			fs.Write(string(rune('a'+i%26))+string(rune('0'+i%10)), make([]byte, int(s)%5000))
		}
		frag := fs.FragmentationBytes()
		// Slack is non-negative and below one unit per file.
		return frag >= 0 && frag < int64(len(fs.Names())+1)*4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNamesSorted(t *testing.T) {
	fs := NewFileStore(NewDevice(Params{}))
	for _, n := range []string{"zeta", "alpha", "mid"} {
		fs.Write(n, []byte("x"))
	}
	names := fs.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	d := NewDevice(Params{})
	before := d.Stats().BusyTime
	d.OpenCost()
	d.ReadCost(5000)
	d.WriteCost(100)
	if d.Stats().BusyTime <= before {
		t.Error("busy time did not accumulate")
	}
}

// partsVolume keeps its files — the names starting with "db" — as
// lists of parts, their bytes the parts concatenated, rendered only when
// the store is asked for them.
type partsVolume map[string][]string

func (v partsVolume) Claims(name string) bool { return strings.HasPrefix(name, "db") }

func (v partsVolume) Size(name string) (int, bool) {
	parts, ok := v[name]
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n, ok
}

func (v partsVolume) AppendFile(b []byte, name string) []byte {
	for _, p := range v[name] {
		b = append(b, p...)
	}
	return b
}

func (v partsVolume) Put(name string, data []byte) { v[name] = []string{string(data)} }

func (v partsVolume) Remove(name string) bool {
	_, ok := v[name]
	delete(v, name)
	return ok
}

func (v partsVolume) Held(names []string) []string {
	for n := range v {
		names = append(names, n)
	}
	return names
}

// TestOwnedContentReadsAsItsBytes: a file a mounted volume keeps in its
// own form answers every question — sizes, names, accounting, every
// read and its modeled latency, deletion — exactly as a plain file
// holding its rendering does, on twin devices.
func TestOwnedContentReadsAsItsBytes(t *testing.T) {
	params := Params{AllocUnit: 4096, JitterFrac: 0.2, Seed: 3}
	owned, plain := NewFileStore(NewDevice(params)), NewFileStore(NewDevice(params))
	vol := partsVolume{"db": {"1,0,5\n", "hello", string(make([]byte, 5000))}}
	rendered := vol.AppendFile(nil, "db")
	for _, fs := range []*FileStore{owned, plain} {
		fs.Write("other", []byte("x"))
	}
	owned.Mount("parts", vol)
	plain.ReplaceSilently("db", append([]byte(nil), rendered...))

	same := func(step string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: owned %v, plain %v", step, got, want)
		}
	}
	for _, fs := range []*FileStore{owned, plain} {
		if sz, err := fs.Size("db"); err != nil || sz != len(rendered) {
			t.Errorf("Size = %d, %v; want %d", sz, err, len(rendered))
		}
	}
	same("Names", owned.Names(), plain.Names())
	same("LogicalBytes", owned.LogicalBytes(), plain.LogicalBytes())
	same("AllocatedBytes", owned.AllocatedBytes(), plain.AllocatedBytes())
	same("FragmentationBytes", owned.FragmentationBytes(), plain.FragmentationBytes())
	for _, fs := range []*FileStore{owned, plain} {
		if data, ok := fs.Peek("db"); !ok || !bytes.Equal(data, rendered) {
			t.Errorf("Peek = %q, %v", data, ok)
		}
		if data, ok := fs.PeekRef("db"); !ok || !bytes.Equal(data, rendered) {
			t.Errorf("PeekRef = %q, %v", data, ok)
		}
	}
	for _, read := range []func(*FileStore) ([]byte, time.Duration, error){
		func(fs *FileStore) ([]byte, time.Duration, error) { return fs.Read("db") },
		func(fs *FileStore) ([]byte, time.Duration, error) { return fs.ReadAt("db", 6, 5) },
		func(fs *FileStore) ([]byte, time.Duration, error) { return fs.ReadAt("db", 3000, 9000) },
		func(fs *FileStore) ([]byte, time.Duration, error) { return fs.ReadAt("db", len(rendered)+1, 1) },
		func(fs *FileStore) ([]byte, time.Duration, error) { return fs.Read("db-absent") },
	} {
		got, gotLat, gotErr := read(owned)
		want, wantLat, wantErr := read(plain)
		same("read", got, want)
		same("read latency", gotLat, wantLat)
		same("read error", gotErr, wantErr)
	}
	same("device counters", owned.Device().Stats(), plain.Device().Stats())
	for _, fs := range []*FileStore{owned, plain} {
		if err := fs.Delete("db"); err != nil || fs.Exists("db") {
			t.Errorf("Delete: %v, still exists %v", err, fs.Exists("db"))
		}
		if err := fs.Delete("db"); err == nil {
			t.Error("a second Delete should fail")
		}
	}
	same("LogicalBytes after Delete", owned.LogicalBytes(), plain.LogicalBytes())
}

// TestThirdPartyWritesMakeOwnedContentPlain: Write, Append and
// ReplaceSilently over a volume's file hand the volume the new bytes to
// hold as they are — what the owner recognises as someone else's file
// and parses afresh — and the store itself keeps nothing.
func TestThirdPartyWritesMakeOwnedContentPlain(t *testing.T) {
	for name, write := range map[string]func(*FileStore){
		"Write":           func(fs *FileStore) { fs.Write("db", []byte("new")) },
		"Append":          func(fs *FileStore) { fs.Append("db", []byte("new")) },
		"ReplaceSilently": func(fs *FileStore) { fs.ReplaceSilently("db", []byte("new")) },
	} {
		fs := NewFileStore(NewDevice(Params{}))
		vol := partsVolume{"db": {"ab", "c"}}
		fs.Mount("parts", vol)
		write(fs)
		want := "new"
		if name == "Append" {
			want = "abcnew"
		}
		if parts := vol["db"]; len(parts) != 1 || parts[0] != want || fs.files != nil {
			t.Errorf("%s: the volume holds %q, the store %d plain files; want %q in the volume", name, parts, len(fs.files), want)
		}
		if data, _ := fs.Peek("db"); string(data) != want {
			t.Errorf("%s: file holds %q, want %q", name, data, want)
		}
	}
}

// TestMountRehomesFiles: mounting a volume hands it the plain files it
// claims, and a volume mounted under a key already taken replaces the
// old one, whose files stay in the store — in the new volume when it
// claims them, plain otherwise — so no mount changes what the store
// holds.
func TestMountRehomesFiles(t *testing.T) {
	fs := NewFileStore(NewDevice(Params{}))
	fs.Write("db1", []byte("one"))
	fs.Write("plain", []byte("p"))
	first := partsVolume{}
	fs.Mount("parts", first)
	if first["db1"][0] != "one" || len(fs.files) != 1 {
		t.Fatalf("after the mount the volume holds %v, the store %d plain files", first, len(fs.files))
	}
	fs.Write("db2", []byte("two"))
	names := fs.Names()
	// The replacement claims only db1, and already holds its own db1.
	second := narrowVolume{partsVolume{"db1": {"mine"}}}
	if fs.Mount("parts", second); !reflect.DeepEqual(fs.Volume("parts"), Volume(second)) || len(fs.vols) != 1 {
		t.Fatalf("after a second mount the key holds %v, the store %d volumes", fs.Volume("parts"), len(fs.vols))
	}
	if got := fs.Names(); !reflect.DeepEqual(got, names) {
		t.Errorf("names %v, want %v", got, names)
	}
	for name, want := range map[string]string{"db1": "mine", "db2": "two", "plain": "p"} {
		if data, _ := fs.Peek(name); string(data) != want {
			t.Errorf("%s holds %q, want %q", name, data, want)
		}
	}
	if _, plain := fs.files["db2"]; !plain {
		t.Error("db2, claimed by no volume, is not a plain file")
	}
}

// narrowVolume is a partsVolume that claims only "db1".
type narrowVolume struct{ partsVolume }

func (v narrowVolume) Claims(name string) bool { return name == "db1" }
