package fleet

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/searchlog"
)

// This file implements live resharding: Fleet.Resize changes the shard
// count while the fleet keeps serving. The protocol is epoch-based and
// flips one *source* shard at a time:
//
//  1. Grow the physical topology first (new shards and dispatchers),
//     so every destination the new placement can name already exists.
//  2. For each old shard s, one epoch: publish a route table in which
//     users homed on s now route by the new placement (all other
//     un-flipped shards keep their old homes); push a barrier through
//     s's worker queue so every request routed to s before the flip —
//     including parked batch misses — is fully applied; snapshot the
//     users of s whose new home differs; export each one's personal
//     state through the updater wire format, in user order on the
//     resizing goroutine, while one importer per destination shard
//     installs what has been exported, in that same order; the epoch
//     does not close until every importer has finished.
//  3. Requests for a moving user that arrive at the destination while
//     its epoch is open are parked in a per-user FIFO hold queue and
//     replayed once the epoch closes — per-user submission order is
//     preserved across the move, and no request is dropped, so the
//     Served+Shed+Canceled invariant holds throughout.
//  4. After the last epoch the final route (new placement only) is
//     published; a full drain then lets a shrink retire the orphaned
//     shards and their dispatchers.
//
// In-flight requests always finish on the shard they were routed to:
// the epoch barrier runs after the route flip is fenced by the enqueue
// read-lock (see storeRoute), which a caller-run request holds until
// process returns, so "old route" tasks — queued or running on their
// callers' goroutines — are applied before any state leaves the source
// shard.

// topology is the immutable physical serving view: the shards and the
// dispatchers coalescing their misses. Workers load it atomically per
// task, so Resize can publish a grown or shrunk view without stopping
// the pool.
type topology struct {
	shards      []*shard
	dispatchers []*dispatcher
}

// routeTable is the atomically published logical routing state. Outside
// a migration prev is nil and place alone decides. During one, a user's
// key routes by its *previous* home until that home's epoch flips
// (flipped[prevShard]), then by the new placement; from names the
// source shard whose epoch is currently open (-1 between epochs), which
// is what the destination-side hold check keys on.
type routeTable struct {
	place   placement.Placement
	prev    placement.Placement
	flipped []bool
	from    int
}

func (rt *routeTable) shardOf(key uint64) int {
	if rt.prev == nil {
		return rt.place.ShardOf(key)
	}
	if ps := rt.prev.ShardOf(key); !rt.flipped[ps] {
		return ps
	}
	return rt.place.ShardOf(key)
}

// storeRoute publishes rt after waiting out every in-flight enqueue:
// enqueue computes a task's shard — and a blocking caller serves its
// own task — under a read lock of the fence, so once every stripe is
// held, no task routed by the previous table is still on its way into a queue or
// being processed outside one: the epoch barrier that follows covers
// the rest. A publication so waits out the longest caller-run serve.
func (f *Fleet) storeRoute(rt *routeTable) {
	f.fence.Lock()
	f.route.Store(rt)
	f.fence.Unlock()
}

// holdQueue is one migrating user's parked requests, FIFO.
type holdQueue struct {
	tasks []task
}

// ResizeOptions tune a live resize.
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
	// Epochs is the number of per-source migration epochs run.
	Epochs int
	// HeldRequests counts requests parked in destination hold queues
	// during the resize and replayed afterwards.
	HeldRequests int64
}

// MigrationStats are the fleet's cumulative migration counters across
// all resizes, for load-generator deltas.
type MigrationStats struct {
	Resizes       int64
	MovedUsers    int64
	MovedBytes    int64
	TransferBytes int64
	DroppedUsers  int64
	HeldRequests  int64
}

// MigrationStats returns the cumulative migration counters.
func (f *Fleet) MigrationStats() MigrationStats {
	return MigrationStats{
		Resizes:       f.migResizes.Load(),
		MovedUsers:    f.migMoved.Load(),
		MovedBytes:    f.migBytes.Load(),
		TransferBytes: f.migTransfer.Load(),
		DroppedUsers:  f.migDropped.Load(),
		HeldRequests:  f.heldRequests.Load(),
	}
}

// Resize changes the shard count to n while serving, migrating each
// re-homed user's personal state to its new shard. See ResizeWith.
func (f *Fleet) Resize(n int) (ResizeStats, error) {
	return f.ResizeWith(n, ResizeOptions{})
}

// ResizeWith is Resize with options. It blocks until the migration
// completes; serving continues throughout (requests for users caught
// mid-move are briefly parked, never dropped). Resizes are serialized
// with each other and with Close.
func (f *Fleet) ResizeWith(n int, opts ResizeOptions) (ResizeStats, error) {
	return f.resize(n, opts, moveUsers)
}

func (f *Fleet) resize(n int, opts ResizeOptions, move moveFunc) (ResizeStats, error) {
	if n < 1 {
		return ResizeStats{}, fmt.Errorf("fleet: cannot resize to %d shards", n)
	}
	f.resizeMu.Lock()
	defer f.resizeMu.Unlock()
	mu := f.fence.reader(0)
	mu.RLock()
	closed := f.closed
	mu.RUnlock()
	if closed {
		return ResizeStats{}, fmt.Errorf("fleet: resize after Close")
	}

	p1 := f.route.Load().place
	n1 := p1.Shards()
	st := ResizeStats{From: n1, To: n}
	if n == n1 {
		return st, nil
	}
	p2 := p1.Resize(n)
	heldBefore := f.heldRequests.Load()

	// Grow the physical topology before any routing changes, so every
	// shard the new placement can name exists.
	tp := f.topo.Load()
	if n > n1 {
		grown, err := buildShards(f.cfg, f.cohorts, f.tl, n1, n)
		if err != nil {
			return st, err
		}
		// A grown shard starts drawing idle power at the model instant it
		// is provisioned, not at time zero: stamp the current makespan
		// before the shard is published (reads fence on the topo store).
		provisioned := f.tl.Makespan()
		for _, sh := range grown {
			sh.provisionedAt = provisioned
		}
		shards := append(append([]*shard(nil), tp.shards...), grown...)
		dispatchers := append([]*dispatcher(nil), tp.dispatchers...)
		if f.cfg.Batch.Enabled && !f.cfg.Batch.FleetWide {
			for i := n1; i < n; i++ {
				dispatchers = append(dispatchers, newDispatcher(f))
			}
		}
		f.topo.Store(&topology{shards: shards, dispatchers: dispatchers})
		tp = f.topo.Load()
	}

	// Migrate one source shard per epoch.
	f.migrating.Store(1)
	flipped := make([]bool, n1)
	for s := 0; s < n1; s++ {
		f.migrateEpoch(tp, p1, p2, flipped, s, opts, move, &st)
		st.Epochs++
	}

	// Publish the final route, then let a shrink retire the orphans:
	// after the fenced publication plus a full drain, no queued task
	// can still name a shard at or beyond n.
	f.storeRoute(&routeTable{place: p2, from: -1})
	f.migrating.Store(0)
	f.Drain()
	if n < n1 {
		retired := tp.shards[n:]
		shards := append([]*shard(nil), tp.shards[:n]...)
		dispatchers := tp.dispatchers
		var retiredDisp []*dispatcher
		if f.cfg.Batch.Enabled && !f.cfg.Batch.FleetWide {
			retiredDisp = tp.dispatchers[n:]
			dispatchers = append([]*dispatcher(nil), tp.dispatchers[:n]...)
		}
		// Retire the orphans: close out each one's energy integrals in its
		// own ledger — idle from provisioning to this retirement instant,
		// active over its busy time — and fold its counter block into
		// f.retired, which keeps every fleet-wide total and the occupancy
		// cross-foot (ShardLoads + RetiredLoad == Served/Shed) intact.
		// Post-drain the counters are final.
		retiredAt := f.tl.Makespan()
		f.retireMu.Lock()
		f.topo.Store(&topology{shards: shards, dispatchers: dispatchers})
		for _, sh := range retired {
			if d := retiredAt - sh.provisionedAt; d > 0 {
				sh.ctr.ledger.ShardIdle.Add(sh.power.IdleJ(d))
			}
			if busy := time.Duration(sh.ctr.busyNS.Load()); busy > 0 {
				sh.ctr.ledger.ShardActive.Add(sh.power.ActiveJ(busy))
			}
			sh.ctr.addTo(&f.retired)
		}
		f.retireMu.Unlock()
		for _, d := range retiredDisp {
			d.close()
		}
	}

	st.HeldRequests = f.heldRequests.Load() - heldBefore
	f.migResizes.Add(1)
	f.migMoved.Add(st.MovedUsers)
	f.migBytes.Add(st.MovedBytes)
	f.migTransfer.Add(st.TransferBytes)
	f.migDropped.Add(st.DroppedUsers)
	return st, nil
}

// migrateEpoch runs one source shard's epoch: flip its users to the new
// placement, fence and drain everything already routed to it, move the
// affected users' state, then close the epoch and replay held requests.
func (f *Fleet) migrateEpoch(tp *topology, p1, p2 placement.Placement, flipped []bool, s int, opts ResizeOptions, move moveFunc, st *ResizeStats) {
	flipped[s] = true
	flip := append([]bool(nil), flipped...)
	f.storeRoute(&routeTable{place: p2, prev: p1, flipped: flip, from: s})

	// Barrier through s's worker queue: all tasks routed to s before
	// the flip are applied (the barrier also flushes the worker's
	// dispatchers, so parked batch misses land too) before any state
	// moves. Tasks routed *away* by the flip are held at their
	// destinations until this epoch closes.
	ack := make(chan struct{}, 1)
	f.queues[s%len(f.queues)].push(&task{barrier: ack})
	<-ack

	// Snapshot the movers after the barrier, when every user the old
	// route could still create on s exists.
	src := tp.shards[s]
	src.mu.Lock()
	var movers []searchlog.UserID
	src.users.forEach(func(st *userState) {
		if p2.ShardOf(placement.UserKey(uint64(st.uid))) != s {
			movers = append(movers, st.uid)
		}
	})
	src.mu.Unlock()
	slices.Sort(movers)

	move(tp, p2, src, movers, opts, st)

	// Close the epoch — new arrivals for the moved users now serve
	// directly — then replay what was parked while it was open.
	f.storeRoute(&routeTable{place: p2, prev: p1, flipped: flip, from: -1})
	f.drainHolds(tp)
}

// moveFunc moves one epoch's movers (in user order) off src to their
// homes under p2, booking them into st. The fleet has one, moveUsers;
// the parameter exists so a test can hold it to the one-at-a-time loop
// it replaced.
type moveFunc func(tp *topology, p2 placement.Placement, src *shard, movers []searchlog.UserID, opts ResizeOptions, st *ResizeStats)

// importBacklog bounds the exports waiting on one destination's
// importer: enough that the exporter rarely stalls behind an importer
// sharing a lock with live traffic, few enough that a resize holds a
// handful of users' records in flight rather than a shard's.
const importBacklog = 16

// moveUsers is the epoch's transfer: this goroutine exports the movers
// in user order — under the source's lock, one user per hold — and hands
// each to its destination's importer, one goroutine per destination
// shard, which installs them in the order they arrive. A user's export
// and import touch the source and destination shards only through their
// own locks and everything else (the timeline, the ledger, the counters
// in st) through commutative updates, so per-user state and every total
// are the same as moving the users one at a time; what differs run to run
// is wall interleaving, which already decided the destination's arena
// slot order whenever it served traffic during a resize. Failures (and
// DropState) cold-start the user at the destination; the user is never
// left resident on both shards. It returns once every importer has.
func moveUsers(tp *topology, p2 placement.Placement, src *shard, movers []searchlog.UserID, opts ResizeOptions, st *ResizeStats) {
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
		dst := tp.shards[p2.ShardOf(placement.UserKey(uint64(uid)))]
		im := importers[dst]
		if im == nil {
			im = &importer{jobs: make(chan job, importBacklog)}
			importers[dst] = im
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range im.jobs {
					if err := dst.importUser(j.uid, j.ex); err != nil {
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

// maybeHold parks a task whose user is caught mid-epoch: the user's old
// home has flipped (so the task routed to its new home) but the open
// epoch has not yet delivered the user's state there. Tasks behind an
// existing hold queue are appended regardless of the epoch state, which
// keeps per-user order while the drainer replays the queue. The
// double-zero fast path keeps this off the serve path entirely outside
// a resize.
func (f *Fleet) maybeHold(t *task) bool {
	if t.held {
		return false
	}
	if f.migrating.Load() == 0 && f.holdEntries.Load() == 0 {
		return false
	}
	sh := f.topo.Load().shards[t.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q, ok := sh.holds[t.req.User]; ok {
		t.mailbox()
		q.tasks = append(q.tasks, *t)
		f.heldRequests.Add(1)
		return true
	}
	// No queue yet: open one only if, re-read under the shard lock (the
	// drainer orders its route publication before taking this lock),
	// the user's old home is the source of the open epoch and this task
	// has already been routed away from it.
	rt := f.route.Load()
	if rt.from < 0 || rt.prev == nil || t.shard == rt.from {
		return false
	}
	if rt.prev.ShardOf(placement.UserKey(uint64(t.req.User))) != rt.from {
		return false
	}
	t.mailbox()
	sh.holds[t.req.User] = &holdQueue{tasks: []task{*t}}
	f.holdEntries.Add(1)
	f.heldRequests.Add(1)
	return true
}

// drainHolds replays every held request, per user in FIFO order, after
// an epoch closes. Users are drained in ID order for reproducibility;
// ordering across users carries no semantics (each user maps to one
// shard and queue).
func (f *Fleet) drainHolds(tp *topology) {
	for _, sh := range tp.shards {
		f.drainShardHolds(sh)
	}
}

// drainShardHolds empties one shard's hold map and returns the passes it
// took. A pass snapshots the held users once, sorted, and drains each in
// turn — one scan of the map per pass, not one per user, which under
// load (a wall-timer resize holding thousands of users) was quadratic
// under the shard lock. No queue opens once the closing route is
// published (maybeHold re-reads it under this lock), so one pass empties
// the map; the loop states that rather than assumes it.
func (f *Fleet) drainShardHolds(sh *shard) (passes int) {
	for {
		sh.mu.Lock()
		uids := make([]searchlog.UserID, 0, len(sh.holds))
		for u := range sh.holds {
			uids = append(uids, u)
		}
		sh.mu.Unlock()
		if len(uids) == 0 {
			return passes
		}
		passes++
		slices.Sort(uids)
		for _, uid := range uids {
			f.drainUserHolds(sh, uid)
		}
	}
}

// drainUserHolds replays one user's hold queue. The queue entry stays
// in the map while a task is being replayed, so requests arriving
// concurrently append behind it instead of overtaking; the entry is
// deleted only once it is observed empty.
func (f *Fleet) drainUserHolds(sh *shard, uid searchlog.UserID) {
	var resp Response
	for {
		sh.mu.Lock()
		q := sh.holds[uid]
		if q == nil {
			sh.mu.Unlock()
			return
		}
		if len(q.tasks) == 0 {
			delete(sh.holds, uid)
			f.holdEntries.Add(-1)
			sh.mu.Unlock()
			return
		}
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		sh.mu.Unlock()
		t.held = true
		f.process(&t, &resp)
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
// resizes: a live shard's counters leave the topology with it, but the
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
	tp := f.topo.Load()
	out := make([]ShardLoad, len(tp.shards))
	for i, sh := range tp.shards {
		out[i] = ShardLoad{Shard: sh.id, Served: sh.ctr.served.Load(), Shed: sh.ctr.shed.Load()}
		sh.mu.Lock()
		out[i].Users = sh.users.resident
		out[i].PersonalBytes = sh.personalBytes
		sh.mu.Unlock()
	}
	return out
}
