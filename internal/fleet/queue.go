package fleet

import (
	"sync"
	"sync/atomic"
)

// keepSlots is the buffer capacity a drained queue may retain (the
// default QueueDepth): anything larger was sized by a backlog that is
// gone and goes back to the collector.
const keepSlots = 1024

// workerQueue is one worker's bounded FIFO, sized by its backlog rather
// than its bound. Producers append to in under mu; the worker takes the
// whole slice in one hand-off and gives the slice it has finished with
// back as the next in, so a steady backlog recycles two buffers and a
// drained queue holds at most keepSlots slots each.
//
// waiting counts the request tasks admitted and not yet started by the
// worker — what limit bounds. Producers read and bump it under mu (so
// the check cannot overshoot); the worker drops it lock-free as it
// starts each task. pending counts the request tasks enqueued and not
// yet fully processed — bumped in enqueue, dropped by the worker once
// process returns — and is what a blocking caller reads to decide who
// runs its request (see enqueue). Padded so neighbouring queues' hot
// words do not false-share.
type workerQueue struct {
	mu     sync.Mutex
	wake   sync.Cond // signalled when in turns non-empty, and on close
	in     []task
	limit  int64
	closed bool

	waiting atomic.Int64
	pending atomic.Int64
	_       [64]byte
}

func (q *workerQueue) init(limit int) {
	q.wake.L = &q.mu
	q.limit = int64(limit)
}

// push appends t in admission order without blocking. A request is
// refused once limit of them are waiting; a barrier is always admitted —
// it occupies one slot for one hand-off, and its sender (Drain or a
// resize, holding off Close through the fence) must never wait on a
// full queue.
func (q *workerQueue) push(t *task) bool {
	q.mu.Lock()
	if t.barrier == nil {
		if q.waiting.Load() >= q.limit {
			q.mu.Unlock()
			return false
		}
		q.waiting.Add(1)
	}
	q.in = append(q.in, *t)
	wake := len(q.in) == 1
	q.mu.Unlock()
	if wake {
		q.wake.Signal()
	}
	return true
}

// take blocks until tasks are queued and returns all of them in
// admission order; done, the batch the worker has finished with, is
// recycled as the next admission buffer. It returns nil once the queue
// is closed and empty.
func (q *workerQueue) take(done []task) []task {
	clear(done)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.in) == 0 {
		done = q.trimLocked(done)
		if q.closed {
			return nil
		}
		q.wake.Wait()
	}
	batch := q.in
	q.in = done[:0]
	return batch
}

// release is take's recycling step on its own, for a worker about to
// acknowledge a barrier with nothing else in hand: buffers a finished
// backlog grew are dropped before whoever waited on the barrier looks at
// the heap, not some time after.
func (q *workerQueue) release(done []task) []task {
	clear(done)
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.trimLocked(done)
}

// trimLocked drops, if nothing is queued, whichever of the two buffers
// outgrew keepSlots, and returns done emptied for reuse.
func (q *workerQueue) trimLocked(done []task) []task {
	if len(q.in) == 0 {
		if cap(q.in) > keepSlots {
			q.in = nil
		}
		if cap(done) > keepSlots {
			done = nil
		}
	}
	return done[:0]
}

// close lets the worker exit once it has served everything admitted.
func (q *workerQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake.Signal()
}
