package nx

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Msg is a received message. Floats is the payload of a SendFloats
// message and nil for phantom messages, whose declared size still
// contributes to virtual transfer time and statistics.
type Msg struct {
	Src      int
	Tag      Tag
	Floats   []float64
	Bytes    int     // payload size in bytes (declared size for phantoms)
	ArriveAt float64 // virtual arrival time at the receiver
}

// envelope is a queued message as the mailbox ring stores it: 32 bytes
// against Msg's 56, so queueing, matching and dequeuing a phantom message
// copies little more than half as much. The public Msg is built only for
// callers that take one (Recv, RecvFloats, RecvAll with an out slice). src
// and tag fit in int32: ranks are mesh nodes, and collective tags stay
// below TagUserMax + 2^27 (see Proc.Group).
type envelope struct {
	src, tag int32
	nbytes   int
	arrive   float64
	pl       *payload // nil for phantom messages
}

// matches reports whether a receive for (src, tag), either of which may
// be a wildcard, accepts the message.
func (e *envelope) matches(src int, tag Tag) bool {
	return (src == AnySrc || int(e.src) == src) && (tag == AnyTag || Tag(e.tag) == tag)
}

// msg builds the public view of the message.
func (e envelope) msg() Msg {
	m := Msg{Src: int(e.src), Tag: Tag(e.tag), Bytes: e.nbytes, ArriveAt: e.arrive}
	if e.pl != nil {
		m.Floats = e.pl.floats
	}
	return m
}

// payload returns the message as a collective payload.
func (e envelope) payload() payload {
	if e.pl != nil {
		return *e.pl
	}
	return payload{bytes: e.nbytes}
}

// RecvSpec names one exact-source receive of Proc.RecvAll.
type RecvSpec struct {
	Src int
	Tag Tag
}

// mailbox is the per-process receive queue with MPI-style (src, tag)
// matching. put may be called from any goroutine; get and getAll only
// from the owner.
//
// Pending messages live in a pooled ring buffer of envelopes: slots are
// reused across the run, so the phantom-mode hot path (millions of
// payload-free messages at Delta scale) performs no steady-state
// allocation per message. The ring preserves arrival order, which is what
// makes wildcard matching and per-sender FIFO behave exactly as the old
// append/delete slice did. Its length is a power of two (it grows by
// doubling from 8), so slots are indexed with a mask.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf is the ring: count messages starting at head, oldest first.
	buf     []envelope
	head    int
	count   int
	aborted bool
	// wantSrc/wantTag describe the in-progress blocked receive for
	// deadlock diagnostics; valid only while waiting is true. waiting
	// also gates the wakeup signal: a put that finds no blocked owner
	// skips the notify entirely (the owner will scan the ring on its
	// next get), which removes a futex operation from most deliveries.
	waiting bool
	wantSrc int
	wantTag Tag
	// all is non-nil while the owner is in getAll: its specs, with
	// allGot marking those a queued message already covers and
	// allMissing counting the rest. put then claims arrivals against the
	// specs and wakes the owner only when the last one is covered.
	all        []RecvSpec
	allGot     []bool
	allMissing int

	// Watchdog counters, sharded per process so the hot path never
	// contends on a shared cache line. sent counts messages sent *by*
	// this mailbox's owner (updated only from the owner goroutine);
	// blocked is blockedRecv while the owner is parked in a receive and
	// blockedFused while it is parked in a fused-collective rendezvous
	// (fused.go). The deadlock watchdog reads both across all processes.
	sent    atomic.Uint64
	blocked atomic.Int32
	// parks counts the owner's waits for a message (EngineStats); it is
	// written under mu and read after the run.
	parks int64
}

// blocked states (mailbox.blocked).
const (
	blockedRecv  = 1 // parked in mailbox.get or getAll
	blockedFused = 2 // parked in a fused-collective rendezvous
)

func (m *mailbox) init() {
	m.cond = sync.NewCond(&m.mu)
}

// put appends one message to the ring, constructing it in place in the
// ring slot.
//
// The wakeup is match-aware: a parked owner is signalled only when the
// arriving message satisfies the (src, tag) it is blocked on, or, in
// getAll, covers the last spec still missing. Eager sending means
// messages for *future* receives routinely land while the owner waits on
// an earlier one; waking it to rescan and re-park for each of those is
// pure scheduler churn. A non-matching message just joins the ring — the
// owner's next full scan (on the matching wakeup, or on its next get)
// finds it there.
func (m *mailbox) put(src int, tag Tag, pl *payload, nbytes int, arriveAt float64) {
	m.mu.Lock()
	if m.count == len(m.buf) {
		m.grow()
	}
	e := &m.buf[(m.head+m.count)&(len(m.buf)-1)]
	*e = envelope{src: int32(src), tag: int32(tag), nbytes: nbytes, arrive: arriveAt, pl: pl}
	m.count++
	var wake bool
	if m.all != nil {
		wake = m.claim(e) && m.allMissing == 0
	} else {
		wake = m.waiting && e.matches(m.wantSrc, m.wantTag)
	}
	m.mu.Unlock()
	if wake {
		m.cond.Signal()
	}
}

// grow doubles the ring (from a small floor), unrolling it so the oldest
// message lands at index 0.
func (m *mailbox) grow() {
	n := 2 * len(m.buf)
	if n < 8 {
		n = 8
	}
	nb := make([]envelope, n)
	for i := 0; i < m.count; i++ {
		nb[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
	}
	m.buf = nb
	m.head = 0
}

// find returns the position (0 = oldest) of the first pending message a
// receive for (src, tag) accepts, or -1.
func (m *mailbox) find(src int, tag Tag) int {
	mask := len(m.buf) - 1
	for i := 0; i < m.count; i++ {
		if m.buf[(m.head+i)&mask].matches(src, tag) {
			return i
		}
	}
	return -1
}

// get blocks until a message matching (src, tag) is available and removes
// it from the queue. Matching scans pending messages in arrival order, so
// messages from a given source are received in the order they were sent.
func (m *mailbox) get(src int, tag Tag) envelope {
	m.mu.Lock()
	for {
		if m.aborted {
			m.mu.Unlock()
			panic(deadlockSignal{})
		}
		if i := m.find(src, tag); i >= 0 {
			e := m.remove(i)
			m.mu.Unlock()
			return e
		}
		m.waiting, m.wantSrc, m.wantTag = true, src, tag
		m.blocked.Store(blockedRecv)
		m.parks++
		m.cond.Wait()
		m.blocked.Store(0)
		m.waiting = false
	}
}

// getAll blocks until every spec has a queued match — a spec listed k
// times needs k matches — then removes one match per spec, in spec order,
// into dst. Each removal takes the oldest match, so the result is what
// consecutive gets would return; unlike them, getAll parks at most once.
func (m *mailbox) getAll(specs []RecvSpec, dst []envelope) {
	m.mu.Lock()
	if cap(m.allGot) < len(specs) {
		m.allGot = make([]bool, len(specs))
	}
	m.all, m.allGot, m.allMissing = specs, m.allGot[:len(specs)], len(specs)
	clear(m.allGot)
	mask := len(m.buf) - 1
	for i := 0; i < m.count && m.allMissing > 0; i++ {
		m.claim(&m.buf[(m.head+i)&mask])
	}
	if m.allMissing > 0 {
		m.blocked.Store(blockedRecv)
		for m.allMissing > 0 && !m.aborted {
			m.parks++
			m.cond.Wait()
		}
		m.blocked.Store(0)
	}
	m.all = nil
	if m.aborted {
		m.mu.Unlock()
		panic(deadlockSignal{})
	}
	for i, s := range specs {
		dst[i] = m.remove(m.find(s.Src, s.Tag))
	}
	m.mu.Unlock()
}

// claim marks the first spec of the in-progress getAll that e satisfies
// and no other queued message already covers. It reports whether there
// was one.
func (m *mailbox) claim(e *envelope) bool {
	for i, s := range m.all {
		if !m.allGot[i] && int(e.src) == s.Src && Tag(e.tag) == s.Tag {
			m.allGot[i] = true
			m.allMissing--
			return true
		}
	}
	return false
}

// remove deletes and returns the i-th pending message (0 = oldest),
// preserving the order of the rest. The common case — matching the oldest
// message — is a head advance; otherwise the messages older than i shift
// up by one slot. The vacated slot is zeroed so the ring does not pin
// payloads.
func (m *mailbox) remove(i int) envelope {
	mask := len(m.buf) - 1
	e := m.buf[(m.head+i)&mask]
	for j := i; j > 0; j-- {
		m.buf[(m.head+j)&mask] = m.buf[(m.head+j-1)&mask]
	}
	m.buf[m.head] = envelope{}
	m.head = (m.head + 1) & mask
	m.count--
	return e
}

// probe reports whether a matching message is available without removing it.
func (m *mailbox) probe(src int, tag Tag) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.find(src, tag) >= 0
}

// abort wakes every waiter with a teardown signal and poisons the mailbox.
func (m *mailbox) abort() {
	m.mu.Lock()
	m.aborted = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// waitingFor describes the blocked receive, if any, for diagnostics. A
// parked getAll lists the specs no queued message covers yet.
func (m *mailbox) waitingFor() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.all != nil {
		var missing []string
		for i, s := range m.all {
			if !m.allGot[i] {
				missing = append(missing, fmt.Sprintf("(src=%d, tag=%d)", s.Src, int(s.Tag)))
			}
		}
		return fmt.Sprintf("RecvAll of %d messages, missing %s, with %d pending",
			len(m.all), strings.Join(missing, ", "), m.count)
	}
	if !m.waiting {
		return ""
	}
	src := "any"
	if m.wantSrc != AnySrc {
		src = fmt.Sprintf("%d", m.wantSrc)
	}
	tag := "any"
	if m.wantTag != AnyTag {
		tag = fmt.Sprintf("%d", int(m.wantTag))
	}
	return fmt.Sprintf("(src=%s, tag=%s) with %d pending", src, tag, m.count)
}
