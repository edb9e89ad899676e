package fleet

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/searchlog"
)

// This file implements resharding: Fleet.Resize changes the shard count
// in one fenced step.
//
//  1. Build the grown shards, if any, with the fleet still serving: each
//     preloads a community replica, the expensive part.
//  2. Take the route fence exclusively. That waits out every caller-run
//     Do and holds off new Submits and Dos until the step is over.
//  3. Drain: a barrier through every worker queue, which also flushes
//     the dispatchers, so every request admitted before the fence —
//     parked batch misses included — is applied. Nothing is now queued,
//     parked or running.
//  4. Move each re-homed user's personal state to its new shard through
//     the updater wire format: sources in index order, each source's
//     movers in user order.
//  5. Publish the new view — placement, shards, dispatchers — as one
//     value, retiring a shrink's orphaned shards in the same step, and
//     release the fence.
//
// Since nothing routed by the old view outlives it, a task's shard index
// is always valid in the view that process loads for it.

// view is the atomically published serving state: the placement routing
// users to shards, the shards, and the dispatchers coalescing their
// misses. Requests load it lock-free; only a resize, holding the route
// fence, replaces it.
type view struct {
	place       placement.Placement
	shards      []*shard
	dispatchers []*dispatcher
}

// ResizeOptions tune a resize.
type ResizeOptions struct {
	// DropState skips personal-state migration entirely: moved users
	// cold-start on their new shard. This is the remap-everything
	// baseline the warm-migration experiment compares against.
	DropState bool
}

// ResizeStats reports one completed resize.
type ResizeStats struct {
	// From and To are the shard counts before and after.
	From, To int
	// MovedUsers is the number of resident users re-homed; MovedBytes
	// their personal flash re-homed with them; TransferBytes the
	// wire-format bytes shipped (table encodings plus records).
	MovedUsers, MovedBytes, TransferBytes int64
	// DroppedUsers counts movers whose state was not migrated (always
	// all movers with DropState; otherwise only export/import
	// failures) — they cold-start at the destination.
	DroppedUsers int64
}

// MigrationStats are the fleet's cumulative migration counters across
// all resizes, for load-generator deltas.
type MigrationStats struct {
	Resizes       int64
	MovedUsers    int64
	MovedBytes    int64
	TransferBytes int64
	DroppedUsers  int64
}

// MigrationStats returns the cumulative migration counters.
func (f *Fleet) MigrationStats() MigrationStats {
	return MigrationStats{
		Resizes:       f.migResizes.Load(),
		MovedUsers:    f.migMoved.Load(),
		MovedBytes:    f.migBytes.Load(),
		TransferBytes: f.migTransfer.Load(),
		DroppedUsers:  f.migDropped.Load(),
	}
}

// Resize changes the shard count to n, migrating each re-homed user's
// personal state to its new shard. See ResizeWith.
func (f *Fleet) Resize(n int) (ResizeStats, error) {
	return f.ResizeWith(n, ResizeOptions{})
}

// ResizeWith is Resize with options. It blocks until the migration
// completes. For the fenced part of it — drain, move, publish — Submit
// and Do wait; the grown shards are built before, while the fleet
// serves. Resizes are serialized with each other and with Close.
func (f *Fleet) ResizeWith(n int, opts ResizeOptions) (ResizeStats, error) {
	return f.resize(n, opts, moveUsers)
}

func (f *Fleet) resize(n int, opts ResizeOptions, move moveFunc) (ResizeStats, error) {
	if n < 1 {
		return ResizeStats{}, fmt.Errorf("fleet: cannot resize to %d shards", n)
	}
	f.resizeMu.Lock()
	defer f.resizeMu.Unlock()
	// Close sets closed holding resizeMu, so it cannot change under us.
	if f.closed {
		return ResizeStats{}, fmt.Errorf("fleet: resize after Close")
	}
	old := f.view.Load()
	n1 := len(old.shards)
	st := ResizeStats{From: n1, To: n}
	if n == n1 {
		return st, nil
	}
	// With batching each shard has its own dispatcher.
	batched := f.cfg.Batch.Enabled
	next := &view{
		place:       old.place.Resize(n),
		shards:      slices.Clone(old.shards[:min(n, n1)]),
		dispatchers: old.dispatchers,
	}
	if batched {
		next.dispatchers = slices.Clone(old.dispatchers[:min(n, n1)])
	}
	if n > n1 {
		grown, err := buildShards(f.cfg, f.cohorts, f.tl, n1, n)
		if err != nil {
			return st, err
		}
		next.shards = append(next.shards, grown...)
		if batched {
			for range grown {
				next.dispatchers = append(next.dispatchers, newDispatcher(f))
			}
		}
	}

	f.fence.Lock()
	awaitBarriers(f.pushBarriers())
	// A grown shard draws idle power from the model instant it joins:
	// the makespan of everything admitted before the fence, now served.
	joined := f.tl.Makespan()
	for _, sh := range next.shards[min(n, n1):] {
		sh.provisionedAt = joined
	}
	for s, src := range old.shards {
		src.lockUsers()
		var movers []searchlog.UserID
		src.users.forEach(func(u *userState) {
			if next.place.ShardOf(placement.UserKey(uint64(u.uid))) != s {
				movers = append(movers, u.uid)
			}
		})
		src.unlockUsers()
		slices.Sort(movers)
		move(next, src, movers, opts, &st)
	}
	// Retire a shrink's orphans in the publishing step: close out each
	// one's energy integrals in its own ledger — idle from provisioning
	// to now, active over its busy time — and fold its counter block into
	// f.retired, which keeps every fleet-wide total and the occupancy
	// cross-foot (ShardLoads + RetiredLoad == Served/Shed) intact.
	// retireMu makes swap and fold one step to a reader taking a total.
	retiredAt := f.tl.Makespan()
	f.retireMu.Lock()
	for _, sh := range old.shards[min(n, n1):] {
		if d := retiredAt - sh.provisionedAt; d > 0 {
			sh.ctr.ledger.ShardIdle.Add(shardPower.IdleJ(d))
		}
		if busy := time.Duration(sh.ctr.busyNS.Load()); busy > 0 {
			sh.ctr.ledger.ShardActive.Add(shardPower.ActiveJ(busy))
		}
		sh.ctr.addTo(&f.retired)
	}
	f.view.Store(next)
	f.retireMu.Unlock()
	f.fence.Unlock()
	if batched {
		for _, d := range old.dispatchers[min(n, n1):] {
			d.close()
		}
	}

	f.migResizes.Add(1)
	f.migMoved.Add(st.MovedUsers)
	f.migBytes.Add(st.MovedBytes)
	f.migTransfer.Add(st.TransferBytes)
	f.migDropped.Add(st.DroppedUsers)
	return st, nil
}

// moveFunc moves one source shard's movers (in user order) off src to
// their homes in dst, booking them into st. The fleet has one,
// moveUsers; the parameter exists so a test can hold it to the
// one-at-a-time loop it replaced.
type moveFunc func(dst *view, src *shard, movers []searchlog.UserID, opts ResizeOptions, st *ResizeStats)

// importBacklog bounds the exports waiting on one destination's
// importer: enough that the exporter rarely stalls behind a slow
// import, few enough that a resize holds a handful of users' records in
// flight rather than a shard's.
const importBacklog = 16

// moveUsers is one source's transfer: this goroutine exports the movers
// in user order — under the source's lock, one user per hold — and hands
// each to its destination's importer, one goroutine per destination
// shard, which installs them in the order they arrive. A user's export
// and import touch the source and destination shards only through their
// own locks and everything else (the timeline, the ledger, the counters
// in st) through commutative updates, so per-user state and every total
// are the same as moving the users one at a time. Failures (and
// DropState) cold-start the user at the destination; the user is never
// left resident on both shards. It returns once every importer has.
func moveUsers(dst *view, src *shard, movers []searchlog.UserID, opts ResizeOptions, st *ResizeStats) {
	type job struct {
		uid searchlog.UserID
		ex  userExport
	}
	type importer struct {
		jobs chan job
		// dropped, bytes and transfer are this importer's share of st,
		// folded in once it has finished.
		dropped, bytes, transfer int64
	}
	importers := make(map[*shard]*importer)
	var wg sync.WaitGroup
	for _, uid := range movers {
		ex, ok, err := src.exportUser(uid)
		if !ok {
			continue
		}
		st.MovedUsers++
		if err != nil || opts.DropState {
			st.DroppedUsers++
			continue
		}
		to := dst.shards[dst.place.ShardOf(placement.UserKey(uint64(uid)))]
		im := importers[to]
		if im == nil {
			im = &importer{jobs: make(chan job, importBacklog)}
			importers[to] = im
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range im.jobs {
					if err := to.importUser(j.uid, j.ex); err != nil {
						im.dropped++
						continue
					}
					im.bytes += j.ex.bytes
					im.transfer += j.ex.update.TotalBytes()
				}
			}()
		}
		im.jobs <- job{uid, ex}
	}
	for _, im := range importers {
		close(im.jobs)
	}
	wg.Wait()
	for _, im := range importers {
		st.DroppedUsers += im.dropped
		st.MovedBytes += im.bytes
		st.TransferBytes += im.transfer
	}
}

// ShardLoad is one shard's serving occupancy.
type ShardLoad struct {
	Shard         int
	Served        int64
	Shed          int64
	Users         int
	PersonalBytes int64
}

// RetiredLoad aggregates the final serving counters of every shard a
// shrink has retired, under the sentinel shard ID -1. Adding it to
// ShardLoads keeps the Served/Shed occupancy cross-foot exact across
// resizes: a live shard's counters leave the view with it, but the
// requests it served still happened.
func (f *Fleet) RetiredLoad() ShardLoad {
	return ShardLoad{
		Shard:  -1,
		Served: f.retired.served.Load(),
		Shed:   f.retired.shed.Load(),
	}
}

// ShardLoads snapshots per-shard occupancy — the skew view that a
// fleet-wide Stats aggregate hides.
func (f *Fleet) ShardLoads() []ShardLoad {
	v := f.view.Load()
	out := make([]ShardLoad, len(v.shards))
	for i, sh := range v.shards {
		out[i] = ShardLoad{Shard: sh.id, Served: sh.ctr.served.Load(), Shed: sh.ctr.shed.Load()}
		out[i].Users, out[i].PersonalBytes = sh.residency()
	}
	return out
}
