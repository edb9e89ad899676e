package fleet

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"pocketcloudlets/internal/searchlog"
)

// evictIndexGolden is the eviction index's observable behaviour on a
// small budgeted fleet, recorded before the index moved from map-keyed
// records to per-user lists. It is a pin, not a fixture: a change that
// needs it re-recorded changed what the cloudletos manager sees.
const evictIndexGolden = "testdata/evictindex.golden"

// TestEvictionIndexGolden holds everything the shards' eviction index
// answers to the Section 7 manager — every shard's Items (key, relation,
// bytes, utility), the bytes and keys a plain and a coordinated
// ReclaimPersonal evict, each user's personal bytes, a mediated read per
// shard, an Evict naming a key twice and a key nobody holds — to the
// golden, byte for byte. The fleet has a per-user budget (so serving
// evicts too) and grows 4→6 shards mid-run (so half the users' indexes
// arrived through a migration).
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
	shards := f.topo.Load().shards
	items := func(label string) map[string][]uint64 {
		keys := make(map[string][]uint64)
		for _, sh := range shards {
			fmt.Fprintf(&b, "%s items %s\n", label, sh.Name())
			for _, it := range sh.Items() {
				fmt.Fprintf(&b, "  %016x rel=%016x bytes=%d utility=%v\n", it.Key, it.Relation, it.Bytes, it.Utility)
				keys[sh.Name()] = append(keys[sh.Name()], it.Key)
			}
		}
		return keys
	}
	userBytes := func(label string) {
		for _, c := range f.UserServeCounts() {
			fmt.Fprintf(&b, "%s user %d bytes=%d\n", label, c.User, c.Bytes)
		}
	}
	evicted := func(before, after map[string][]uint64) {
		for _, sh := range shards {
			for _, k := range before[sh.Name()] {
				if !slices.Contains(after[sh.Name()], k) {
					fmt.Fprintf(&b, "  evicted %s %016x\n", sh.Name(), k)
				}
			}
		}
	}

	start := items("start")
	userBytes("start")
	for _, sh := range shards {
		keys := start[sh.Name()]
		if len(keys) == 0 {
			fmt.Fprintf(&b, "read %s: no items\n", sh.Name())
			continue
		}
		k := keys[len(keys)/2]
		rec, err := f.Manager().ReadFrom(sh.Name(), sh.Name(), k)
		fmt.Fprintf(&b, "read %s %016x: %d bytes sha256=%x err=%v\n", sh.Name(), k, len(rec), sha256.Sum256(rec), err)
	}

	total := f.Stats().PersonalBytes
	freed := f.ReclaimPersonal(total/4, false)
	fmt.Fprintf(&b, "reclaim want=%d coordinate=false freed=%d\n", total/4, freed)
	plain := items("plain")
	evicted(start, plain)
	userBytes("plain")

	total = f.Stats().PersonalBytes
	freed = f.ReclaimPersonal(total/4, true)
	fmt.Fprintf(&b, "reclaim want=%d coordinate=true freed=%d\n", total/4, freed)
	coord := items("coordinated")
	evicted(plain, coord)
	userBytes("coordinated")

	sh := shards[0]
	if keys := coord[sh.Name()]; len(keys) > 0 {
		k := keys[0]
		fmt.Fprintf(&b, "evict %s [%016x twice, absent] freed=%d\n", sh.Name(), k, sh.Evict([]uint64{k, k, 0x5eed}))
		_, err := f.Manager().ReadFrom(sh.Name(), sh.Name(), k)
		fmt.Fprintf(&b, "read evicted %016x: err=%v\n", k, err)
	}
	fmt.Fprintf(&b, "personal bytes %d\n", f.Stats().PersonalBytes)
	return b.String()
}
