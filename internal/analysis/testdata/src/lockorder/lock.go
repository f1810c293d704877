// Package lockorder is the hpcclock analysistest fixture. The shard
// type is a sharded engine: one mutex per shard, with the contract that
// no flow ever holds two shard locks at once.
package lockorder

import (
	"sync"
	"sync/atomic"
)

type shard struct {
	mu    sync.Mutex
	seq   int64
	slots []int
}

type other struct {
	mu sync.Mutex
}

// selfDeadlock relocks the very same mutex.
func selfDeadlock(a *shard) {
	a.mu.Lock()
	a.mu.Lock() // want `locked again while already held`
	a.mu.Unlock()
}

// doubleShard holds two locks of the same owner type: the forbidden
// symmetric-deadlock shape.
func doubleShard(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want `second shard lock`
	b.mu.Unlock()
	a.mu.Unlock()
}

// handOff is the sanctioned cross-shard pattern: release before taking
// the next shard's lock.
func handOff(a, b *shard) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// differentOwners may nest: the contract is per owner type.
func differentOwners(a *shard, o *other) {
	a.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	a.mu.Unlock()
}

// lockHelper is a same-package function that takes a shard lock; calling
// it while holding one is an indirect double acquisition.
func lockHelper(s *shard) {
	s.mu.Lock()
	s.slots = append(s.slots, 0)
	s.mu.Unlock()
}

func indirectDouble(a, b *shard) {
	a.mu.Lock()
	lockHelper(b) // want `may acquire a second shard lock`
	a.mu.Unlock()
}

// drain is the unlocker-helper shape (nx's drainWake): it releases its
// parameter's mutex, so callers transfer ownership instead of stacking.
func drain(s *shard) {
	s.slots = s.slots[:0]
	s.mu.Unlock()
}

func helperHandOff(a, b *shard) {
	a.mu.Lock()
	drain(a) // releases a.mu: the next lock is not a second acquisition
	b.mu.Lock()
	b.mu.Unlock()
}

// deferred unlocks keep the lock held to the end of the body but are not
// a violation by themselves.
func deferredUnlock(a *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.slots = append(a.slots, 1)
}

// closures are separate flows: the literal runs on its own schedule, so
// the outer lock state does not leak into it.
func closureFlow(a *shard) func() {
	a.mu.Lock()
	defer a.mu.Unlock()
	return func() {
		a.mu.Lock()
		defer a.mu.Unlock()
	}
}

// mixedSeq is read both atomically and plainly: the data race -race only
// catches when the interleaving happens to occur.
func mixedSeq(s *shard) int64 {
	atomic.AddInt64(&s.seq, 1)
	return s.seq // want `mixed access is a data race`
}
