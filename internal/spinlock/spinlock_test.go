package spinlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMutualExclusion has 8 goroutines bump one plain counter under the
// lock; a lost update or, under -race, an unordered access fails it.
func TestMutualExclusion(t *testing.T) {
	const goroutines, rounds = 8, 2000
	var (
		m       Mutex
		counter int
		inside  atomic.Int32
		wg      sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Lock()
				if n := inside.Add(1); n != 1 {
					t.Errorf("%d goroutines inside the critical section", n)
				}
				counter++
				inside.Add(-1)
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*rounds {
		t.Fatalf("counter = %d, want %d", counter, goroutines*rounds)
	}
}

// TestProgressOnOneProcessor contends the lock on a single P, where a
// waiter's yield is the holder's only chance to run and release.
func TestProgressOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const goroutines, rounds = 4, 5000
	var (
		m       Mutex
		counter int
		wg      sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Lock()
				counter++
				if i%64 == 0 {
					runtime.Gosched() // preempted while holding
				}
				m.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("no progress on one processor")
	}
	if counter != goroutines*rounds {
		t.Fatalf("counter = %d, want %d", counter, goroutines*rounds)
	}
}

// waitBehind holds m for hold while one goroutine runs lockSlow, and
// reports the waiter's tries, whether it blocked, and whether it returned
// only after the release.
func waitBehind(m *Mutex, hold time.Duration) (tries int, parked, afterRelease bool) {
	var released atomic.Bool
	m.Lock()
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		tries, parked = m.lockSlow()
		afterRelease = released.Load()
		m.Unlock()
	}()
	<-started
	time.Sleep(hold)
	released.Store(true)
	m.Unlock()
	<-done
	return tries, parked, afterRelease
}

// TestLongHoldParks holds the lock for 20 ms: the lone waiter runs out of
// tries long before that, blocks on the underlying mutex, and returns
// only after the release.
func TestLongHoldParks(t *testing.T) {
	var m Mutex
	tries, parked, afterRelease := waitBehind(&m, 20*time.Millisecond)
	if tries != spins || !parked {
		t.Errorf("waiter behind a 20 ms hold: %d tries, parked %v; want %d tries, then blocked", tries, parked, spins)
	}
	if !afterRelease {
		t.Error("waiter returned before the holder released")
	}
}

// TestQueuedWaiterDoesNotSpin: a waiter that finds another goroutine
// already waiting blocks at once, and still gets the lock on release.
func TestQueuedWaiterDoesNotSpin(t *testing.T) {
	var m Mutex
	m.waiters.Add(1) // another waiter, already queued
	tries, parked, afterRelease := waitBehind(&m, time.Millisecond)
	if tries != 0 || !parked {
		t.Errorf("second waiter: %d tries, parked %v; want 0 tries, blocked at once", tries, parked)
	}
	if !afterRelease {
		t.Error("waiter returned before the holder released")
	}
	if n := m.waiters.Add(-1); n != 0 {
		t.Errorf("%d waiters left counted after every waiter returned", n)
	}
}
