package flashsim

import (
	"bytes"
	"errors"
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
	fs.Write("a", []byte("hello world"))
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
		names := make(map[string]bool)
		for i, s := range sizes {
			name := string(rune('a'+i%26)) + string(rune('0'+i%10))
			fs.Write(name, make([]byte, int(s)%5000))
			names[name] = true
		}
		frag := fs.FragmentationBytes()
		// Slack is non-negative and below one unit per file.
		return frag >= 0 && frag < int64(len(names)+1)*4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
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
