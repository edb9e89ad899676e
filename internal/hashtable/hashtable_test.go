package hashtable

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero slots should fail")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative slots should fail")
	}
	if _, err := New(MaxSlotsPerEntry + 1); err == nil {
		t.Error("more slots than the flags word has bits should fail")
	}
	for _, n := range []int{2, MaxSlotsPerEntry} {
		if tbl, err := New(n); err != nil || tbl.SlotsPerEntry() != n {
			t.Errorf("New(%d) = %v, %v", n, tbl, err)
		}
	}
}

func TestPutLookupOrdering(t *testing.T) {
	tbl := MustNew(2)
	tbl.Put(100, SearchRef{ResultHash: 1, Score: 0.3})
	tbl.Put(100, SearchRef{ResultHash: 2, Score: 0.7})
	tbl.Put(100, SearchRef{ResultHash: 3, Score: 0.5})
	refs := tbl.Lookup(100)
	if len(refs) != 3 {
		t.Fatalf("got %d refs, want 3", len(refs))
	}
	if refs[0].ResultHash != 2 || refs[1].ResultHash != 3 || refs[2].ResultHash != 1 {
		t.Errorf("lookup order wrong: %+v", refs)
	}
	if tbl.Lookup(999) != nil {
		t.Error("missing query should return nil")
	}
}

func TestChainingBeyondSlots(t *testing.T) {
	tbl := MustNew(2)
	for i := 0; i < 5; i++ {
		tbl.Put(7, SearchRef{ResultHash: uint64(i), Score: float64(i)})
	}
	// 5 refs at 2 slots per entry -> 3 entries for 1 query.
	if tbl.NumQueries() != 1 || tbl.NumEntries() != 3 || tbl.NumRefs() != 5 {
		t.Errorf("queries=%d entries=%d refs=%d, want 1/3/5",
			tbl.NumQueries(), tbl.NumEntries(), tbl.NumRefs())
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	tbl := MustNew(2)
	tbl.Put(1, SearchRef{ResultHash: 9, Score: 0.4})
	tbl.Put(1, SearchRef{ResultHash: 9, Score: 0.9})
	if tbl.NumRefs() != 1 {
		t.Errorf("refs = %d, want 1 (update in place)", tbl.NumRefs())
	}
	if s, ok := tbl.Score(1, 9); !ok || s != 0.9 {
		t.Errorf("score = %g, %v, want 0.9", s, ok)
	}
}

func TestSetScore(t *testing.T) {
	tbl := MustNew(2)
	tbl.Put(1, SearchRef{ResultHash: 9, Score: 0.4})
	if !tbl.SetScore(1, 9, 0.6) {
		t.Error("SetScore on existing pair failed")
	}
	if s, _ := tbl.Score(1, 9); s != 0.6 {
		t.Errorf("score = %g, want 0.6", s)
	}
	if tbl.SetScore(1, 8, 0.5) || tbl.SetScore(2, 9, 0.5) {
		t.Error("SetScore on missing pair should return false")
	}
}

func TestAccessedFlags(t *testing.T) {
	tbl := MustNew(2)
	tbl.Put(1, SearchRef{ResultHash: 10, Score: 0.5})
	tbl.Put(1, SearchRef{ResultHash: 11, Score: 0.5})
	if tbl.Accessed(1, 10) {
		t.Error("fresh pair should not be accessed")
	}
	if !tbl.MarkAccessed(1, 10) {
		t.Error("MarkAccessed failed")
	}
	if !tbl.Accessed(1, 10) || tbl.Accessed(1, 11) {
		t.Error("accessed flag leaked to wrong slot")
	}
	if tbl.MarkAccessed(2, 10) {
		t.Error("MarkAccessed on missing pair should fail")
	}
}

func TestRemove(t *testing.T) {
	tbl := MustNew(2)
	tbl.Put(1, SearchRef{ResultHash: 10, Score: 0.5})
	tbl.Put(1, SearchRef{ResultHash: 11, Score: 0.4})
	tbl.Put(1, SearchRef{ResultHash: 12, Score: 0.3})
	tbl.MarkAccessed(1, 11)
	if !tbl.Remove(1, 10) {
		t.Fatal("Remove failed")
	}
	// Flag for 11 must survive slot compaction.
	if !tbl.Accessed(1, 11) {
		t.Error("accessed flag lost after compaction")
	}
	if tbl.NumRefs() != 2 {
		t.Errorf("refs = %d, want 2", tbl.NumRefs())
	}
	tbl.Remove(1, 11)
	tbl.Remove(1, 12)
	if tbl.Contains(1) {
		t.Error("query should vanish when last ref removed")
	}
	if tbl.Remove(1, 12) {
		t.Error("Remove on missing pair should fail")
	}
}

func TestPairsDeterministic(t *testing.T) {
	build := func() *Table {
		tbl := MustNew(2)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			tbl.Put(uint64(r.Intn(50)), SearchRef{ResultHash: uint64(r.Intn(300)), Score: r.Float64()})
		}
		return tbl
	}
	a, b := build().Pairs(), build().Pairs()
	if len(a) != len(b) {
		t.Fatal("pair counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFootprintModel(t *testing.T) {
	// The modeled layout: 48 bytes per two-slot entry (the paper's
	// ~200 KB for a ~4000-entry cache implies ~50 B/entry).
	if EntryBytes(2) != 48 {
		t.Errorf("EntryBytes(2) = %d, want 48", EntryBytes(2))
	}
	tbl := MustNew(2)
	for q := 0; q < 4200; q++ {
		tbl.Put(uint64(q), SearchRef{ResultHash: uint64(q), Score: 1})
	}
	// ~4200 entries at 48 B each: ~200 KB, the paper's DRAM
	// footprint at the cache saturation point.
	if got := tbl.FootprintBytes(); got != 4200*48 {
		t.Errorf("footprint = %d, want %d", got, 4200*48)
	}
}

// TestTwoSlotsOptimalForPaperMix verifies the Figure 11 claim on a
// result-count mix like the cached head's: many 1-2 result queries and
// a band of long-click-list queries make k=2 the footprint minimum.
func TestTwoSlotsOptimalForPaperMix(t *testing.T) {
	counts := map[int]int{1: 2200, 2: 1700, 3: 400, 4: 150, 6: 50}
	foot := func(k int) int64 {
		tbl := MustNew(k)
		q := uint64(0)
		for rc, n := range counts {
			for i := 0; i < n; i++ {
				for r := 0; r < rc; r++ {
					tbl.Put(q, SearchRef{ResultHash: uint64(r), Score: float64(rc - r)})
				}
				q++
			}
		}
		return tbl.FootprintBytes()
	}
	f1, f2, f3, f4 := foot(1), foot(2), foot(3), foot(4)
	if !(f2 < f1 && f2 < f3 && f3 < f4) {
		t.Errorf("footprints: k1=%d k2=%d k3=%d k4=%d; want minimum at k=2", f1, f2, f3, f4)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tbl := MustNew(2)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		q, res := uint64(r.Intn(100)), uint64(r.Intn(1000))
		tbl.Put(q, SearchRef{ResultHash: res, Score: r.Float64()})
		if r.Intn(3) == 0 {
			tbl.MarkAccessed(q, res)
		}
	}
	var buf bytes.Buffer
	if err := tbl.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tbl.Pairs(), got.Pairs()
	if len(a) != len(b) {
		t.Fatalf("pair count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFromPairsMatchesDecode holds FromPairs to the wire round trip it
// stands in for: over random tables at one to four slots — chains longer
// than an entry, removals that leave gaps the encoding closes, accessed
// flags — FromPairs(Pairs()) shows every observable Decode(Encode())
// does, its size is EncodedLen, and the two stay equal under further
// Puts. (The tables' insides may differ: Decode's Puts can leave free
// entries behind that FromPairs's exact sizing never has.)
func TestFromPairsMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		slots := 1 + trial%4
		tbl := MustNew(slots)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			qh, rh := uint64(rng.Intn(12)), uint64(rng.Intn(40))
			tbl.Put(qh, SearchRef{ResultHash: rh, Score: rng.Float64() * 5})
			if rng.Intn(3) == 0 {
				tbl.MarkAccessed(qh, rh)
			}
			if rng.Intn(5) == 0 {
				tbl.Remove(uint64(rng.Intn(12)), uint64(rng.Intn(40)))
			}
		}
		var buf bytes.Buffer
		if err := tbl.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != EncodedLen(tbl.NumRefs()) {
			t.Fatalf("trial %d: encoding is %d bytes, EncodedLen says %d", trial, buf.Len(), EncodedLen(tbl.NumRefs()))
		}
		want, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromPairs(slots, tbl.Pairs())
		if err != nil {
			t.Fatal(err)
		}
		if d := diffTables(got, want); d != "" {
			t.Fatalf("trial %d (%d slots): FromPairs differs from Decode(Encode): %s", trial, slots, d)
		}
		for qh := uint64(0); qh < 12; qh++ {
			got.Put(qh, SearchRef{ResultHash: 1000, Score: 9})
			want.Put(qh, SearchRef{ResultHash: 1000, Score: 9})
		}
		if d := diffTables(got, want); d != "" {
			t.Fatalf("trial %d: the copy diverges from the decoded table after further Puts: %s", trial, d)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	tbl := MustNew(2)
	tbl.Put(1, SearchRef{ResultHash: 2, Score: 0.5})
	var buf bytes.Buffer
	if err := tbl.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 8, 15, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
			t.Errorf("Decode of %d-byte prefix should fail", n)
		}
	}
}

func TestPutLookupProperty(t *testing.T) {
	f := func(ops []struct {
		Q, R  uint16
		Score float64
	}) bool {
		tbl := MustNew(2)
		want := map[[2]uint64]float64{}
		for _, op := range ops {
			q, r := uint64(op.Q%20), uint64(op.R%50)
			tbl.Put(q, SearchRef{ResultHash: r, Score: op.Score})
			want[[2]uint64{q, r}] = op.Score
		}
		if tbl.NumRefs() != len(want) {
			return false
		}
		for k, s := range want {
			got, ok := tbl.Score(k[0], k[1])
			if !ok || got != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl := MustNew(2)
	for q := 0; q < 10000; q++ {
		tbl.Put(uint64(q)*2654435761, SearchRef{ResultHash: uint64(q), Score: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(uint64(i%10000) * 2654435761)
	}
}

func BenchmarkPut(b *testing.B) {
	tbl := MustNew(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Put(uint64(i)*2654435761, SearchRef{ResultHash: uint64(i), Score: 1})
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	tbl := MustNew(2)
	for q := 0; q < 5000; q++ {
		tbl.Put(uint64(q)*2654435761, SearchRef{ResultHash: uint64(q), Score: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tbl.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProbeMatchesSearches: everything a Probe does from the position it
// found equals the search-per-call methods it stands in for — Refs is
// LookupInto, Click is a SetScore per result of the query, MarkAccessed
// is MarkAccessed — on random tables of every slot count, chained
// entries included, and a pair that is not stored does not probe.
func TestProbeMatchesSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for slots := 1; slots <= 4; slots++ {
		got, want := MustNew(slots), MustNew(slots)
		for i := 0; i < 400; i++ {
			ref := SearchRef{ResultHash: uint64(rng.Intn(9)), Score: rng.Float64()}
			qh := uint64(rng.Intn(40))
			got.Put(qh, ref)
			want.Put(qh, ref)
		}
		for i := 0; i < 2000; i++ {
			qh, rh := uint64(rng.Intn(41)), uint64(rng.Intn(10))
			p, ok := got.Probe(qh, rh)
			if ok != want.ContainsRef(qh, rh) {
				t.Fatalf("slots %d: Probe(%d, %d) found %v, ContainsRef %v", slots, qh, rh, ok, !ok)
			}
			if !ok {
				continue
			}
			refs := want.Lookup(qh)
			if !reflect.DeepEqual(p.Refs(nil), refs) {
				t.Fatalf("slots %d: Probe(%d, %d).Refs = %v, Lookup = %v", slots, qh, rh, p.Refs(nil), refs)
			}
			const decay = 0.9048374180359595
			for _, r := range refs {
				if r.ResultHash == rh {
					want.SetScore(qh, rh, r.Score+1)
				} else {
					want.SetScore(qh, r.ResultHash, r.Score*decay)
				}
			}
			clicked, _ := want.Score(qh, rh)
			if s := p.Click(decay); s != clicked {
				t.Fatalf("slots %d: Click scored the pair %v, SetScore %v", slots, s, clicked)
			}
			if i%3 == 0 {
				p.MarkAccessed()
				want.MarkAccessed(qh, rh)
			}
		}
		if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
			t.Fatalf("slots %d: tables diverge after probed updates", slots)
		}
	}
}

// TestHeadIndexUnderChurn holds the open-addressed head index to a map
// through long runs of inserts and removals over a few hundred queries,
// so probe runs wrap the index, grow it, and close over removed heads:
// every query stays findable exactly while it holds a result.
func TestHeadIndexUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spread := range []uint64{1, 1 << 58, 0x9e3779b97f4a7c15} {
		tbl := MustNew(2)
		want := map[uint64]int{}
		for step := 0; step < 20000; step++ {
			qh := uint64(rng.Intn(300)) * spread
			rh := uint64(rng.Intn(3))
			if rng.Intn(3) > 0 {
				if !tbl.ContainsRef(qh, rh) {
					want[qh]++
				}
				tbl.Put(qh, SearchRef{ResultHash: rh, Score: 1})
			} else if tbl.Remove(qh, rh) {
				if want[qh]--; want[qh] == 0 {
					delete(want, qh)
				}
			}
			if step%97 == 0 || step > 19900 {
				if tbl.NumQueries() != len(want) {
					t.Fatalf("spread %x step %d: %d queries, want %d", spread, step, tbl.NumQueries(), len(want))
				}
				for q := uint64(0); q < 300; q++ {
					if got, n := len(tbl.Lookup(q*spread)), want[q*spread]; got != n || tbl.Contains(q*spread) != (n > 0) {
						t.Fatalf("spread %x step %d: query %d holds %d results, want %d", spread, step, q, got, n)
					}
				}
			}
		}
	}
}
