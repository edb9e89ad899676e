package fleet

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/searchlog"
)

// evictIndexGolden is the eviction index's observable behaviour on a
// small budgeted fleet, recorded before the index moved from map-keyed
// records to per-user lists. It is a pin, not a fixture: a change that
// needs it re-recorded changed which records serving keeps.
const evictIndexGolden = "testdata/evictindex.golden"

// TestEvictionIndexGolden holds what the shards' eviction index holds —
// every shard's records (key, query hash, bytes, utility) and each
// user's personal bytes — to the golden, byte for byte. The fleet has a
// per-user budget (so serving evicts) and grows 4→6 shards mid-run (so
// half the users' indexes arrived through a migration).
func TestEvictionIndexGolden(t *testing.T) {
	want, err := os.ReadFile(evictIndexGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := renderEvictionIndex(t)
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", evictIndexGolden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s: %d lines rendered, %d recorded", evictIndexGolden, len(gotLines), len(wantLines))
	}
}

// renderEvictionIndex runs the golden's scenario and renders what it
// observed, one fact a line.
func renderEvictionIndex(t *testing.T) string {
	const users = 40
	g := smallGen(t, users)
	tapes := tapesFor(g, users, 1)
	uids := make([]searchlog.UserID, 0, len(tapes))
	for uid := range tapes {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	f := newRingFleet(t, g, func(cfg *Config) {
		cfg.Population = users
		cfg.PerUserBytes = 5_000
	})
	serve := func(from, to int) {
		for _, uid := range uids {
			tape := tapes[uid]
			for _, req := range tape[min(from, len(tape)):min(to, len(tape))] {
				if resp := f.Do(req); resp.Shed || resp.Err != nil {
					t.Fatalf("user %d request failed: %+v", uid, resp)
				}
			}
		}
	}
	serve(0, 20)
	if st, err := f.Resize(6); err != nil || st.MovedUsers == 0 {
		t.Fatalf("resize 4→6: %+v, %v", st, err)
	}
	serve(20, 1<<30)
	f.Drain()

	var b strings.Builder
	for _, sh := range f.view.Load().shards {
		fmt.Fprintf(&b, "start items pocketsearch-shard-%d\n", sh.id)
		for _, it := range shardItems(sh) {
			fmt.Fprintf(&b, "  %016x rel=%016x bytes=%d utility=%v\n", it.key, it.queryHash, it.bytes, it.utility)
		}
	}
	for _, c := range f.UserServeCounts() {
		fmt.Fprintf(&b, "start user %d bytes=%d\n", c.User, c.Bytes)
	}
	return b.String()
}

// evictItem is one personal record as the golden lists it.
type evictItem struct {
	key, queryHash uint64
	bytes          int64
	utility        float64
}

// shardItems lists every resident user's personal records on sh in key
// order. The key names a (user, result) record stably across shards, so
// the order does not depend on arena slots or list order.
func shardItems(sh *shard) []evictItem {
	sh.lockUsers()
	defer sh.unlockUsers()
	var out []evictItem
	sh.users.forEach(func(st *userState) {
		for _, ref := range st.refs {
			out = append(out, evictItem{
				key:       hash64.Mix((uint64(st.uid)+1)*0x9E3779B97F4A7C15 ^ ref.resultHash),
				queryHash: ref.queryHash,
				bytes:     ref.bytes,
				utility:   st.utilityOf(ref),
			})
		}
	})
	slices.SortFunc(out, func(a, b evictItem) int { return cmp.Compare(a.key, b.key) })
	return out
}
