// Package spinlock is a mutex for critical sections a microsecond long
// that two busy goroutines contend for: a waiter yields its processor a
// bounded number of times, retrying, before it parks.
//
// sync.Mutex parks a waiter as soon as its own short active spin fails,
// and it rarely spins at all when every processor is busy. A parked
// goroutine then waits for the scheduler to run it again, which on a
// loaded two-CPU host costs hundreds of microseconds — hundreds of times
// the critical section it waited for — while its CPU sits idle. Lock
// here keeps the waiter runnable instead: between tries it calls
// runtime.Gosched, which lets the holder (or any other goroutine) run
// and returns at once when nothing else is runnable. A waiter behind a
// long hold still parks once the bound runs out.
//
// Only a lone waiter spins: one that finds another goroutine already
// waiting joins the sync.Mutex queue at once. Spinning pays for the
// two-client case it is built for, where the one waiter would otherwise
// leave its CPU idle. With a queue, a spinner barges past the goroutines
// parked in it: forty clients on one shard lock, with a batch dispatcher
// applying their misses under it, coalesced half as many cloud misses
// per radio session when every waiter spun, and about a tenth fewer with
// one spinner at a time.
package spinlock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spins is how many times Lock yields and retries before it parks on the
// underlying sync.Mutex. It is sized from three measurements on a 2-vCPU
// Xeon host (go1.24, linux/amd64), over units of the repository
// benchmark's workloads:
//   - hold time, timed from Lock's return to Unlock in log2 buckets over
//     one timed pass of hit_closed: route holds a fleet user stripe
//     0.5–1 µs at the median and 2–4 µs at p99 (the one shard lock the
//     stripes replaced read the same buckets under the same timer), a
//     community hit holds the shard's community lock 256–512 ns and
//     1–2 µs. When the bound was set, a backend replica lock was held
//     across Price's replay, 4–8 µs at the median and 32–64 µs at p99
//     on fault_hedge;
//   - one yield and retry costs about 0.14 µs;
//   - a parked waiter runs again 0.2–0.6 ms after the unlock that woke
//     it (runtime trace: 510 ms of scheduler delay over 918 wake-ups on
//     hit_closed, 3.9 s over 19,480 on fault_hedge).
//
// 256 tries are about 36 µs: past the p99 hold of every one of these
// locks, and a fifth of one wake-up or less, so a waiter that gives up
// has spent less than the park it falls back to.
const spins = 256

// Mutex is a sync.Mutex whose Lock spins before it sleeps. The zero value
// is unlocked. Like sync.Mutex it must not be copied after first use.
// The race detector, fairness and starvation handling are sync.Mutex's
// own: sync.Mutex.TryLock fails while the mutex is in starvation mode,
// so a spinning waiter never barges past a waiter it hands off to.
type Mutex struct {
	mu sync.Mutex
	// waiters counts the goroutines in lockSlow, spinning or parked.
	waiters atomic.Int32
}

// Lock locks m. While it is held, a lone waiter yields and retries up to
// spins times before it blocks until m is released; a waiter that finds
// another one waiting blocks at once.
func (m *Mutex) Lock() {
	if m.mu.TryLock() {
		return
	}
	m.lockSlow()
}

// lockSlow is Lock after a failed first try. It reports how many times
// the waiter yielded, and whether it then blocked: at once, because
// another goroutine was already waiting, or after spins tries.
func (m *Mutex) lockSlow() (tries int, parked bool) {
	defer m.waiters.Add(-1)
	if m.waiters.Add(1) == 1 {
		for tries < spins {
			runtime.Gosched()
			tries++
			if m.mu.TryLock() {
				return tries, false
			}
		}
	}
	m.mu.Lock()
	return tries, true
}

// Unlock unlocks m. As with sync.Mutex, unlocking an unlocked Mutex is a
// run-time error, and a locked Mutex is not tied to a goroutine.
func (m *Mutex) Unlock() { m.mu.Unlock() }
