package engine

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"pocketcloudlets/internal/searchlog"
)

// TestSharedRecordsMatchTheRecord holds both of Engine.Record's forms to
// Result.Record byte for byte over the golden IDs: the fresh rendering is
// the caller's own, the shared one is rendered once — every later
// request gets the same bytes, capacity clipped to the record — and a
// second engine's table shares nothing with the first.
func TestSharedRecordsMatchTheRecord(t *testing.T) {
	u := testUniverse(t)
	fresh, shared, other := New(u), New(u).WithSharedRecords(), New(u).WithSharedRecords()
	for _, id := range goldenIDs(u) {
		want := u.Result(id).Record()
		if got := fresh.Record(id); !bytes.Equal(got, want) {
			t.Fatalf("result %d: fresh record %q, want %q", id, got, want)
		}
		got := shared.Record(id)
		if !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("result %d: shared record %q (cap %d), want %q", id, got, cap(got), want)
		}
		if again := shared.Record(id); unsafe.SliceData(again) != unsafe.SliceData(got) {
			t.Fatalf("result %d rendered twice by one engine", id)
		}
		if unsafe.SliceData(other.Record(id)) == unsafe.SliceData(got) {
			t.Fatalf("result %d shared across engines", id)
		}
	}
	if unsafe.SliceData(fresh.Record(3)) == unsafe.SliceData(fresh.Record(3)) {
		t.Error("an engine without shared records handed out one buffer twice")
	}
}

// TestSharedRecordsConcurrent races goroutines through one table over
// overlapping results: each result ends up rendered once, and what every
// goroutine was handed is that rendering.
func TestSharedRecordsConcurrent(t *testing.T) {
	u := testUniverse(t)
	e := New(u).WithSharedRecords()
	const workers, ids = 4, 3000
	got := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([][]byte, ids)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ids {
				id := (k*7 + w*ids/workers) % ids
				got[w][id] = e.Record(searchlog.ResultID(id))
			}
		}(w)
	}
	wg.Wait()
	for id := range ids {
		rec := e.Record(searchlog.ResultID(id))
		if !bytes.Equal(rec, u.Result(searchlog.ResultID(id)).Record()) {
			t.Fatalf("result %d: %q", id, rec)
		}
		for w := range got {
			if unsafe.SliceData(got[w][id]) != unsafe.SliceData(rec) {
				t.Fatalf("result %d: goroutine %d was handed another rendering", id, w)
			}
		}
	}
}

// TestFindIDBuildsNoText: naming the clicked result — a navigational
// or a non-navigational one — allocates nothing.
func TestFindIDBuildsNoText(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	nav, _ := e.Search("site1")
	nn := u.ResultURL(searchlog.ResultID(u.navResults + 5))
	nonNav, _ := e.Search(u.QueryText(u.QueryOf(u.NonNavPair(5))))
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := nav.FindID("www.site1.com/videos"); !ok {
			t.Fatal("the section page is not found")
		}
		if _, ok := nonNav.FindID(nn); !ok {
			t.Fatal("the non-navigational result is not found")
		}
	}); n != 0 {
		t.Errorf("FindID allocates %.1f objects", n)
	}
}
