package fleet

import (
	"time"

	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
)

// BatchOptions configure cloud-miss coalescing. The paper's energy
// argument (Sections 1 and 5, Figures 15b and 16) is that a radio
// session's overhead — the 1.5–2 s wake-up, the handshake round trips
// and the multi-second high-power tail — dwarfs the payload of a small
// exchange, so misses that share one session amortize nearly all of
// that cost. With coalescing enabled, concurrent misses are parked in
// a miss queue and a dispatcher goroutine drains them into batched
// radio sessions: one wake-up, one handshake and one tail per batch,
// payloads serialized in submission order.
type BatchOptions struct {
	// Enabled turns miss coalescing on.
	Enabled bool
	// MaxBatch caps the misses per radio session. Zero selects
	// DefaultMaxBatch.
	MaxBatch int
	// Linger is how long a dispatcher holds an open batch waiting for
	// more misses before firing the session. It is wall-clock
	// collection time only and never enters the modeled latency. Zero
	// selects DefaultLinger.
	Linger time.Duration
}

// DefaultMaxBatch is the default cap on misses per radio session.
const DefaultMaxBatch = 16

// DefaultLinger is the default dispatcher linger window.
const DefaultLinger = 200 * time.Microsecond

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.Linger <= 0 {
		o.Linger = DefaultLinger
	}
	return o
}

// missTask is one classified cloud miss awaiting application: being
// planned against the backend, or parked for coalescing. While it waits
// it is the user's entry in their stripe's pending list.
type missTask struct {
	t task
	// mc is the miss's fault plan, planned by its classifier right after
	// the hold that classified it, before the miss is applied or parked.
	mc missCtx
	// done is closed once the miss has been applied and its response
	// delivered; whoever serves the same user's next request waits on it
	// first, preserving per-user submission order and the clock the plan
	// was computed against.
	done chan struct{}
}

// dispatchMsg is one message on a dispatcher's queue: a miss to
// coalesce, or — when miss is nil — a flush demand. The single queue
// keeps misses and flushes FIFO, so a flush acknowledgment guarantees
// every miss enqueued before it has been applied.
type dispatchMsg struct {
	miss *missTask
	ack  chan struct{}
}

// dispatcher drains a miss queue into batched radio sessions. Each
// shard has its own; it models one uplink, so its sessions are
// serialized.
type dispatcher struct {
	f    *Fleet
	ch   chan dispatchMsg
	done chan struct{}
}

// dispatcherInbox is the dispatcher channel's buffer: a few full batches
// at the default MaxBatch. It need not track QueueDepth — a full inbox
// only makes the goroutine parking a miss wait for the dispatcher it is
// handing that miss to, and the dispatcher never waits on its senders.
const dispatcherInbox = 64

func newDispatcher(f *Fleet) *dispatcher {
	d := &dispatcher{
		f:    f,
		ch:   make(chan dispatchMsg, dispatcherInbox),
		done: make(chan struct{}),
	}
	go d.run()
	return d
}

// submit parks one classified miss for coalescing.
func (d *dispatcher) submit(mt *missTask) { d.ch <- dispatchMsg{miss: mt} }

// flush demands that every miss enqueued so far be dispatched without
// further lingering. It does not wait for the batch to be applied; the
// caller waits on the relevant missTask.done instead.
func (d *dispatcher) flush() { d.ch <- dispatchMsg{} }

// flushWait flushes and blocks until every previously enqueued miss
// has been applied (the Drain barrier path).
func (d *dispatcher) flushWait() {
	ack := make(chan struct{})
	d.ch <- dispatchMsg{ack: ack}
	<-ack
}

// close stops the dispatcher after it has drained its queue. Callers
// must guarantee no further submits (the fleet closes dispatchers only
// after every worker has exited and, having taken the fence to set closed,
// after every caller-run serve has returned).
func (d *dispatcher) close() {
	close(d.ch)
	<-d.done
}

// run is the dispatcher loop: collect misses until the batch is full
// or the linger window expires, then fire the session.
func (d *dispatcher) run() {
	defer close(d.done)
	opts := d.f.cfg.Batch
	var batch []*missTask
	var timer *time.Timer
	var timeout <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timeout = nil, nil
		}
	}
	fire := func() {
		stopTimer()
		if len(batch) > 0 {
			d.execute(batch)
			batch = nil
		}
	}
	for {
		if len(batch) == 0 {
			msg, ok := <-d.ch
			if !ok {
				return
			}
			if msg.miss == nil {
				if msg.ack != nil {
					close(msg.ack)
				}
				continue
			}
			batch = append(batch, msg.miss)
			if len(batch) >= opts.MaxBatch {
				fire()
				continue
			}
			timer = time.NewTimer(opts.Linger)
			timeout = timer.C
			continue
		}
		select {
		case msg, ok := <-d.ch:
			if !ok {
				fire()
				return
			}
			if msg.miss == nil {
				fire()
				if msg.ack != nil {
					close(msg.ack)
				}
				continue
			}
			batch = append(batch, msg.miss)
			if len(batch) >= opts.MaxBatch {
				fire()
			}
		case <-timeout:
			timer, timeout = nil, nil
			fire()
		}
	}
}

// execute fires one batched session: a single engine visit resolves
// every query, a single radio session (one wake-up, one handshake, one
// tail) carries the exchanges, and the misses are applied to their
// shards in submission order. Each member carries its own precomputed
// fault plan (missCtx): only members whose plan succeeded ride the
// shared radio session — a member the network dropped never produced an
// exchange — and members with no survivors open no session at all.
// Failed attempts are replayed on each member's own device when the
// miss is applied, so per-user outcomes stay independent of batch
// composition.
func (d *dispatcher) execute(batch []*missTask) {
	f := d.f
	queries := make([]string, len(batch))
	for i, mt := range batch {
		queries[i] = mt.t.req.Query
	}
	resps, found := f.cfg.Engine.SearchBatch(queries)
	slot := make([]int, len(batch))
	items := make([]radio.Exchange, 0, len(batch))
	for i, mt := range batch {
		slot[i] = -1
		if mt.mc.hplan.Winner >= 0 {
			slot[i] = len(items)
			items = append(items, radio.Exchange{
				ReqBytes:  pocketsearch.QueryRequestBytes,
				RespBytes: pocketsearch.MissPageBytes(resps[i]),
			})
		}
	}
	shards := f.view.Load().shards
	var bt radio.BatchTransfer
	if len(items) > 0 {
		bt = radio.BatchExchange(f.cfg.Radio, items)
		// Totals are sums over blocks, so the first member's serves.
		shards[batch[0].t.shard].ctr.bookBatch(&bt)
	}
	var resp Response
	for i, mt := range batch {
		x := exchange{bt: &bt, slot: slot[i], eresp: resps[i], found: found[i]}
		sh := shards[mt.t.shard]
		sh.applyMiss(&mt.t.req, &mt.mc, x, &resp)
		f.finish(sh, &resp, &mt.t)
		sh.releaseMiss(mt)
	}
}

// bookBatch books one shared radio session a dispatcher fired.
func (c *shardCounters) bookBatch(bt *radio.BatchTransfer) {
	c.batches.Add(1)
	c.batchedMisses.Add(int64(bt.Size()))
	c.batchSizes[bt.Size()].Add(1)
	if !bt.WasWarm {
		c.wakeups.Add(1)
	}
}
