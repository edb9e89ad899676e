package fleet

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/searchlog"
)

// TestOneRenderingPerFleet holds the fleet to storing each result record
// once: users on every shard who click the same uncached result — all at
// once, so the record table is raced for — each store it, every one of
// their databases references one backing array, and so do the shards'
// community replicas for a community result and a migrated user after a
// resize. Sharing is invisible to accounting and to readers: each user's
// database still counts the record's bytes, and DB.Get and the
// cloudlet's mediated shard.Read hand out copies, so writing into one
// changes nobody's record.
func TestOneRenderingPerFleet(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, nil)
	u := g.Config().Universe

	// A tail pair no community replica holds.
	p := u.NonNavPair(39_000)
	if _, cached := content.Scores[p]; cached {
		t.Fatal("fixture: the tail pair is community content")
	}
	query, click := u.QueryText(u.QueryOf(p)), u.ResultURL(u.ResultOf(p))
	ch := hash64.Sum(click)
	users := make([]searchlog.UserID, 16)
	var wg sync.WaitGroup
	for i := range users {
		users[i] = searchlog.UserID(i)
		wg.Add(1)
		go func(uid searchlog.UserID) {
			defer wg.Done()
			if resp := f.Do(Request{User: uid, Query: query, Click: click}); resp.Err != nil || resp.Source != SourceCloud || resp.Outcome.Stored == 0 {
				t.Errorf("user %d: %+v", uid, resp)
			}
		}(users[i])
	}
	wg.Wait()

	// record returns the user's stored record and database size.
	record := func(uid searchlog.UserID) ([]byte, int64) {
		t.Helper()
		sh := f.view.Load().shards[f.shardOf(uid)]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		st := sh.users.get(uid)
		rec, _, err := st.cache.DB().GetView(ch)
		if err != nil {
			t.Fatalf("user %d: %v", uid, err)
		}
		if st.bytes != st.cache.DB().LogicalBytes() {
			t.Errorf("user %d: booked %d bytes, the database holds %d", uid, st.bytes, st.cache.DB().LogicalBytes())
		}
		return rec, st.cache.DB().LogicalBytes()
	}
	shared, size := record(users[0])
	if want := u.Result(u.ResultOf(p)).Record(); !bytes.Equal(shared, want) || size <= int64(len(want)) {
		t.Fatalf("stored %q in a %d-byte database, want %q and its header", shared, size, want)
	}
	shards := map[int]bool{}
	for _, uid := range users {
		shards[f.shardOf(uid)] = true
		if rec, n := record(uid); unsafe.SliceData(rec) != unsafe.SliceData(shared) || n != size {
			t.Errorf("user %d holds its own rendering (%d bytes counted, want %d)", uid, n, size)
		}
	}
	if len(shards) < 2 {
		t.Fatalf("fixture: the users live on %d shard(s)", len(shards))
	}

	// The community replicas preload one rendering of a community result.
	var commPair searchlog.PairID
	for commPair = range content.Scores {
		break
	}
	commHash := hash64.Sum(u.ResultURL(u.ResultOf(commPair)))
	var commRec []byte
	for _, sh := range f.view.Load().shards {
		sh.mu.Lock()
		rec, _, err := sh.community.DB().GetView(commHash)
		sh.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if commRec == nil {
			commRec = rec
		} else if unsafe.SliceData(rec) != unsafe.SliceData(commRec) {
			t.Errorf("shard %d's community replica holds its own rendering", sh.id)
		}
	}

	// Copies are the caller's to write into.
	a, b := users[0], users[1]
	sha := f.view.Load().shards[f.shardOf(a)]
	sha.mu.Lock()
	got, _, err := sha.users.get(a).cache.DB().Get(ch)
	sha.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	got[0] ^= 0xff
	for _, uid := range []searchlog.UserID{a, b} {
		if rec, _ := record(uid); !bytes.Equal(rec, u.Result(u.ResultOf(p)).Record()) {
			t.Errorf("user %d's record changed under a write into a copy: %q", uid, rec)
		}
	}

	// A migrated user's import references the same bytes.
	home := map[searchlog.UserID]int{}
	for _, uid := range users {
		home[uid] = f.shardOf(uid)
	}
	if _, err := f.Resize(3); err != nil {
		t.Fatal(err)
	}
	f.Drain()
	moved := 0
	for _, uid := range users {
		if f.shardOf(uid) != home[uid] {
			moved++
		}
		if rec, n := record(uid); unsafe.SliceData(rec) != unsafe.SliceData(shared) || n != size {
			t.Errorf("after the resize user %d holds its own rendering (%d bytes counted, want %d)", uid, n, size)
		}
	}
	if moved == 0 {
		t.Error("fixture: the resize moved none of the users")
	}
}
