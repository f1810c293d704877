package nx

import (
	"fmt"
	"sync"
)

// EngineStats counts the host-side work of the runtime: how often the
// fused collective engine was entered, locked and waited on, and how
// often receivers parked. The counts describe the host execution only —
// they depend on host scheduling (parks especially) and never reach a
// Result — so they are a diagnostic side channel, printed by
// `hpcc run -stats`.
type EngineStats struct {
	FusedPosts   int64 // collective and exchange posts to the fused engine
	Flushes      int64 // engine-lock holds that filed a process's queued posts
	Settles      int64 // deferred chains applied to a process's clock
	FusedParks   int64 // settles that had to wait for a rendezvous to complete
	MailboxParks int64 // waits of a receiver for a message
	Rendezvous   int64 // rendezvous completed (replayed)
	Pooled       int64 // rendezvous allocated for the engine's pools
}

func (s *EngineStats) add(o EngineStats) {
	s.FusedPosts += o.FusedPosts
	s.Flushes += o.Flushes
	s.Settles += o.Settles
	s.FusedParks += o.FusedParks
	s.MailboxParks += o.MailboxParks
	s.Rendezvous += o.Rendezvous
	s.Pooled += o.Pooled
}

// Sub returns the counts accumulated since an earlier reading.
func (s EngineStats) Sub(before EngineStats) EngineStats {
	return EngineStats{
		FusedPosts:   s.FusedPosts - before.FusedPosts,
		Flushes:      s.Flushes - before.Flushes,
		Settles:      s.Settles - before.Settles,
		FusedParks:   s.FusedParks - before.FusedParks,
		MailboxParks: s.MailboxParks - before.MailboxParks,
		Rendezvous:   s.Rendezvous - before.Rendezvous,
		Pooled:       s.Pooled - before.Pooled,
	}
}

// String renders the counts as space-separated name=value pairs.
func (s EngineStats) String() string {
	return fmt.Sprintf("fused-posts=%d flushes=%d settles=%d fused-parks=%d mailbox-parks=%d rendezvous=%d pooled-rendezvous=%d",
		s.FusedPosts, s.Flushes, s.Settles, s.FusedParks, s.MailboxParks, s.Rendezvous, s.Pooled)
}

// engineTotals accumulates EngineStats over every run of the process. A
// run adds its counts once, when its processes have returned, so the
// engine's hot paths only bump fields their own goroutine owns.
var engineTotals struct {
	mu sync.Mutex
	s  EngineStats
}

// ReadEngineStats returns the EngineStats of every Run this process has
// finished so far. Subtract two readings to count one stretch of work.
func ReadEngineStats() EngineStats {
	engineTotals.mu.Lock()
	defer engineTotals.mu.Unlock()
	return engineTotals.s
}

// addEngineStats adds a finished run's counts to the process totals. It
// runs after every process goroutine has returned, so the per-process
// and per-slot state it reads is quiescent.
func (rt *runtime) addEngineStats() {
	var s EngineStats
	for _, p := range rt.procs {
		s.add(p.engine)
		s.MailboxParks += p.mbox.parks
	}
	// Pooled rendezvous are never released, so every one allocated is on
	// its slot's ring or free list.
	for _, sl := range rt.slots {
		s.Pooled += int64(len(sl.ring) + len(sl.free))
	}
	engineTotals.mu.Lock()
	engineTotals.s.add(s)
	engineTotals.mu.Unlock()
}
