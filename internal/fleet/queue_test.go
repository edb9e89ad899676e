package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gate is an Observer that, once armed, parks whoever serves a request
// inside Observe until the test lets it through: one token on pass per
// response, or open to let everything through for good. entered reports
// that a server is parked (the worker, in these tests: everything is
// Submitted).
type gate struct {
	armed   atomic.Bool
	entered chan struct{}
	pass    chan struct{}
	opened  sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 1), pass: make(chan struct{})}
}

func (g *gate) open() { g.opened.Do(func() { close(g.pass) }) }

func (g *gate) Observe(r Response) {
	if r.Shed || !g.armed.Load() {
		return // sheds are booked on the submitter's goroutine
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.pass
}

// gatedFleet is a one-shard, one-worker fleet whose worker parks in g.
func gatedFleet(t *testing.T, depth int) (*Fleet, *gate, []Request) {
	t.Helper()
	gen := smallGen(t, 4)
	g := newGate()
	g.armed.Store(true)
	f := newTestFleet(t, gen, smallContent(t, gen), func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.QueueDepth = depth
		cfg.Observer = g
	})
	// Runs before the fleet's own cleanup (last in, first out), so a
	// failed assertion cannot leave Close waiting on a parked worker.
	t.Cleanup(g.open)
	return f, g, requestsFor(gen, gen.Users()[0], 0)
}

// heapAlloc is the live heap after a collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestQueueFIFOPerProducer pushes from 8 goroutines through a small
// bound (refused pushes retry) and takes on the test goroutine: every
// producer's tasks arrive in the order it pushed them, no hand-off ever
// carries more requests than the bound, and a closed, empty queue ends
// the worker.
func TestQueueFIFOPerProducer(t *testing.T) {
	const producers, per, limit = 8, 4000, 256
	var q workerQueue
	q.init(limit)
	var wg sync.WaitGroup
	var failed atomic.Bool // stops the producers' retry loops
	defer failed.Store(true)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for !q.push(&task{shard: p, enqueued: int64(i)}) {
					if failed.Load() {
						return
					}
					runtime.Gosched()
				}
			}
		}(p)
	}
	var next [producers]int64
	var batch []task
	for got := 0; got < producers*per; {
		batch = q.take(batch)
		if len(batch) > limit {
			t.Fatalf("hand-off of %d requests through a bound of %d", len(batch), limit)
		}
		for _, tk := range batch {
			q.waiting.Add(-1)
			if tk.enqueued != next[tk.shard] {
				t.Fatalf("producer %d: got its task %d, want %d", tk.shard, tk.enqueued, next[tk.shard])
			}
			next[tk.shard]++
			got++
		}
	}
	wg.Wait()
	q.close()
	if batch = q.take(batch); batch != nil {
		t.Fatalf("closed, empty queue handed off %d tasks", len(batch))
	}
}

// TestShedAtExactlyQueueDepth parks the worker and fills the queue: the
// bound counts requests waiting — queued or already handed to the worker
// but not begun — and nothing else.
func TestShedAtExactlyQueueDepth(t *testing.T) {
	const depth = 8
	f, g, tape := gatedFleet(t, depth)

	if !f.Submit(tape[0]) {
		t.Fatal("first submission shed")
	}
	<-g.entered // the worker has begun it: nothing is waiting
	for i := 0; i < depth; i++ {
		if !f.Submit(tape[0]) {
			t.Fatalf("shed with %d of %d waiting", i, depth)
		}
	}
	if f.Submit(tape[0]) {
		t.Fatalf("admitted a request with %d already waiting", depth)
	}

	// Let the first response through: the worker takes all eight in one
	// hand-off and parks in the first of them, so seven still wait.
	g.pass <- struct{}{}
	<-g.entered
	if !f.Submit(tape[0]) {
		t.Fatalf("shed with %d of %d waiting (tasks in the worker's hands counted as begun?)", depth-1, depth)
	}
	if f.Submit(tape[0]) {
		t.Fatalf("admitted a request with %d already waiting (tasks in the worker's hands not counted)", depth)
	}

	g.open()
	f.Drain()
	if st := f.Stats(); st.Served != 1+depth+1 || st.Shed != 2 {
		t.Errorf("served %d, shed %d; want %d, 2", st.Served, st.Shed, 1+depth+1)
	}
}

// TestBarrierAdmittedToFullQueue: Drain on a full queue with a parked
// worker must get its barrier in and let go of f.mu — the old channel
// send blocked there holding the read lock — and return once the worker
// has served what was ahead of it.
func TestBarrierAdmittedToFullQueue(t *testing.T) {
	const depth = 4
	f, g, tape := gatedFleet(t, depth)
	f.Submit(tape[0])
	<-g.entered
	for i := 0; i < depth; i++ {
		if !f.Submit(tape[0]) {
			t.Fatalf("shed with %d of %d waiting", i, depth)
		}
	}

	drained := make(chan struct{})
	go func() {
		f.Drain()
		close(drained)
	}()
	q := &f.queues[0]
	deadline := time.Now().Add(10 * time.Second)
	for queued := 0; queued != depth+1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("no barrier in the full queue after 10 s (%d tasks queued)", queued)
		}
		q.mu.Lock()
		queued = len(q.in)
		q.mu.Unlock()
	}
	f.fence.Lock() // would deadlock against a Drain still holding a read lock
	f.fence.Unlock()
	if f.Submit(tape[0]) {
		t.Error("the barrier's slot admitted a request to a full queue")
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with the worker parked")
	default:
	}

	g.open()
	<-drained
	if st := f.Stats(); st.Served != 1+depth {
		t.Errorf("Drain returned with %d of %d served", st.Served, 1+depth)
	}
}

// TestCloseServesEverythingAdmitted closes the fleet while the worker is
// parked with a backlog behind it: Close returns only after all of it
// was served, and sheds whatever comes later.
func TestCloseServesEverythingAdmitted(t *testing.T) {
	const backlog = 100
	f, g, tape := gatedFleet(t, 1024)
	f.Submit(tape[0])
	<-g.entered
	for i := 0; i < backlog; i++ {
		if !f.Submit(tape[i%len(tape)]) {
			t.Fatalf("submission %d shed", i)
		}
	}

	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	for marked := false; !marked; runtime.Gosched() {
		mu := f.fence.reader(0)
		mu.RLock()
		marked = f.closed
		mu.RUnlock()
	}
	if f.Submit(tape[0]) {
		t.Error("admitted a request after Close")
	}
	g.open()
	<-closed
	if st := f.Stats(); st.Served != 1+backlog || st.Shed != 1 {
		t.Errorf("served %d, shed %d; want %d, 1", st.Served, st.Shed, 1+backlog)
	}
}

// TestQueueFootprintFollowsBacklog holds the two halves of the memory
// rule: a large QueueDepth costs nothing until requests wait, and a
// backlog's buffers are gone by the time Drain returns.
func TestQueueFootprintFollowsBacklog(t *testing.T) {
	const burst = 200_000
	gen := smallGen(t, 4)
	content := smallContent(t, gen)
	tape := requestsFor(gen, gen.Users()[0], 0)
	g := newGate()

	before := heapAlloc()
	f := newTestFleet(t, gen, content, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.QueueDepth = 1 << 19
		cfg.Observer = g
	})
	t.Cleanup(g.open)
	if grew := heapAlloc() - before; grew >= 1<<20 {
		t.Errorf("New with QueueDepth 1<<19 grew the heap by %d B, want < 1 MiB", grew)
	}

	// One ungated pass first, so the user's own state — heap the fleet
	// is meant to keep — is in place before the measurement starts.
	for _, r := range tape {
		f.Submit(r)
	}
	f.Drain()

	start := heapAlloc()
	g.armed.Store(true)
	f.Submit(tape[0])
	<-g.entered
	for i := 0; i < burst; i++ {
		if !f.Submit(tape[i%len(tape)]) {
			t.Fatalf("submission %d shed below the bound", i)
		}
	}
	if peak := heapAlloc() - start; peak < burst*64 {
		t.Fatalf("a %d-request backlog grew the heap by only %d B: nothing for the release to prove", burst, peak)
	}
	g.open()
	f.Drain()
	if kept := heapAlloc() - start; kept > 2<<20 {
		t.Errorf("%d B still live after the backlog drained, want within 2 MiB of the start", kept)
	}
}

// BenchmarkFleetSubmitDrain measures the queue hop on its own: warmed
// requests (every one a hit) Submitted in bursts of 512 with a Drain
// after each — the shape of the repository benchmark's submit probe.
// ns/op is per Submit with the drains' share folded in. Steady state
// allocates nothing per request: a burst fits the buffers a drained
// queue keeps, and a Drain's acknowledgment channels are 3 allocations
// a burst.
func BenchmarkFleetSubmitDrain(b *testing.B) {
	const burst = 512
	gen := smallGen(b, 64)
	f := newTestFleet(b, gen, smallContent(b, gen), func(cfg *Config) {
		cfg.Options.DiscardResults = true // nobody reads a Submit's results
	})
	var tape []Request
	for _, up := range gen.Users()[:8] {
		tape = append(tape, requestsFor(gen, up, 0)...)
	}
	for _, r := range tape {
		f.Do(r)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if !f.Submit(tape[i%len(tape)]) {
				b.Fatal("shed below the bound")
			}
			if i%burst == burst-1 {
				f.Drain()
			}
		}
		f.Drain()
	}
	run(burst) // the queues' first buffers
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
