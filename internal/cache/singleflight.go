package cache

// Request coalescing for cache-fronted services: when several callers
// ask for the same key while the first computation is still running, the
// extras wait for that result instead of recomputing it. hpcc serve uses
// this so a burst of identical HTTP requests runs the workload once and
// writes the cache once — without it, every request in the burst would
// miss (the entry is only written after the run) and the "cache" would
// multiply load exactly when it matters most.

import (
	"errors"
	"sync"
)

// Flight deduplicates concurrent calls by key. The zero value is ready
// to use; a Flight must not be copied after first use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	waiters int // joined callers, guarded by Flight.mu; tests use it to sync
	val     any
	err     error
}

// Do runs fn and returns its result, unless another Do with the same key
// is already in flight — then it waits for that call and returns its
// result instead, with shared=true. The result of a call is delivered to
// every waiter verbatim, errors included; a new call with the same key
// after the first completes runs fn again (results are not cached here —
// that is the Cache's job). If fn panics, the panic continues in the
// caller that ran it, its waiters get an error, and the key is free for
// the next call.
func (f *Flight) Do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		c.waiters++
		f.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	if f.calls == nil {
		f.calls = make(map[string]*flightCall)
	}
	f.calls[key] = c
	f.mu.Unlock()

	// Deferred, so a panicking fn cannot leave its waiters blocked
	// forever and the key poisoned. Unregister before waking the
	// waiters: a Do arriving after the wake must start a fresh call, not
	// join one that has already finished.
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(c.done)
	}()
	c.err = errFlightPanicked
	c.val, c.err = fn()
	return c.val, false, c.err
}

// errFlightPanicked is what waiters receive when the call they joined
// panicked instead of returning.
var errFlightPanicked = errors.New("cache: coalesced call panicked")
