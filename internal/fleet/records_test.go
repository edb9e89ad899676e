package fleet

import (
	"bytes"
	"sync"
	"testing"

	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/resultdb"
	"pocketcloudlets/internal/searchlog"
)

// TestFleetStoresRecordsByID holds the fleet to storing no record text:
// users on every shard who click the same uncached result — all at once
// — each store it as the result's ID and length, and so do the shards'
// community replicas for a community result and a migrated user after a
// resize. Naming is invisible to accounting and to readers: each user's
// database counts the record's bytes, DB.Get renders them, and a copy is
// the caller's to write into.
func TestFleetStoresRecordsByID(t *testing.T) {
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
	want := resultdb.Record{Hash: ch, ID: uint32(u.ResultOf(p)), Length: uint32(u.RecordLen(u.ResultOf(p)))}
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

	// stored returns the user's stored record and database size.
	stored := func(uid searchlog.UserID) (resultdb.Record, int64) {
		t.Helper()
		sh := f.view.Load().shards[f.shardOf(uid)]
		us := sh.stripeOf(uid)
		us.mu.Lock()
		defer us.mu.Unlock()
		st := sh.users.get(uid)
		rec, _, err := st.cache.DB().Fetch(ch)
		if err != nil {
			t.Fatalf("user %d: %v", uid, err)
		}
		if st.bytes != st.cache.DB().LogicalBytes() {
			t.Errorf("user %d: booked %d bytes, the database holds %d", uid, st.bytes, st.cache.DB().LogicalBytes())
		}
		return rec, st.cache.DB().LogicalBytes()
	}
	_, size := stored(users[0])
	if size <= int64(want.Length) {
		t.Fatalf("a %d-byte database holds a %d-byte record and its header", size, want.Length)
	}
	shards := map[int]bool{}
	for _, uid := range users {
		shards[f.shardOf(uid)] = true
		if rec, n := stored(uid); rec != want || n != size {
			t.Errorf("user %d stores %+v (%d bytes counted), want %+v (%d)", uid, rec, n, want, size)
		}
	}
	if len(shards) < 2 {
		t.Fatalf("fixture: the users live on %d shard(s)", len(shards))
	}

	// The community replicas preload a community result by its ID.
	var commPair searchlog.PairID
	for commPair = range content.Scores {
		break
	}
	commID := u.ResultOf(commPair)
	commHash := hash64.Sum(u.ResultURL(commID))
	for _, sh := range f.view.Load().shards {
		sh.commMu.Lock()
		rec, _, err := sh.community.DB().Fetch(commHash)
		sh.commMu.Unlock()
		if err != nil || rec.ID != uint32(commID) || int(rec.Length) != u.RecordLen(commID) {
			t.Errorf("shard %d's community replica stores %+v, %v", sh.id, rec, err)
		}
	}

	// Get renders the record, and the copy is the caller's to write into.
	a, b := users[0], users[1]
	sha := f.view.Load().shards[f.shardOf(a)]
	sha.stripeOf(a).mu.Lock()
	got, _, err := sha.users.get(a).cache.DB().Get(ch)
	sha.stripeOf(a).mu.Unlock()
	if err != nil || !bytes.Equal(got, u.Result(u.ResultOf(p)).Record()) {
		t.Fatalf("Get renders %q, %v", got, err)
	}
	got[0] ^= 0xff
	shb := f.view.Load().shards[f.shardOf(b)]
	shb.stripeOf(b).mu.Lock()
	again, _, err := shb.users.get(b).cache.DB().Get(ch)
	shb.stripeOf(b).mu.Unlock()
	if err != nil || !bytes.Equal(again, u.Result(u.ResultOf(p)).Record()) {
		t.Errorf("user %d's record changed under a write into a copy: %q", b, again)
	}

	// A migrated user's import names the same record.
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
		if rec, n := stored(uid); rec != want || n != size {
			t.Errorf("after the resize user %d stores %+v (%d bytes counted), want %+v (%d)", uid, rec, n, want, size)
		}
	}
	if moved == 0 {
		t.Error("fixture: the resize moved none of the users")
	}
}
