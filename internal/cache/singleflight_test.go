package cache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	var f Flight
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	vals := make([]any, n)
	shareds := make([]bool, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := f.Do("k", func() (any, error) {
			close(started)
			<-release
			calls.Add(1)
			return "answer", nil
		})
		if err != nil {
			t.Error(err)
		}
		vals[0], shareds[0] = v, shared
	}()
	<-started // the leader holds the key; everyone else must join it
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := f.Do("k", func() (any, error) {
				calls.Add(1)
				return "answer", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shareds[i] = v, shared
		}(i)
	}
	// Release the leader only once every follower has joined its call —
	// otherwise a slow-to-schedule follower arrives after the flight
	// lands and (correctly) starts a fresh one.
	for {
		f.mu.Lock()
		joined := 0
		if c := f.calls["k"]; c != nil {
			joined = c.waiters
		}
		f.mu.Unlock()
		if joined == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	sharedCount := 0
	for i := range vals {
		if vals[i] != "answer" {
			t.Fatalf("call %d got %v", i, vals[i])
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("%d of %d calls shared, want all but the leader", sharedCount, n)
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var f Flight
	a, sharedA, _ := f.Do("a", func() (any, error) { return 1, nil })
	b, sharedB, _ := f.Do("b", func() (any, error) { return 2, nil })
	if a != 1 || b != 2 || sharedA || sharedB {
		t.Fatalf("distinct keys interfered: a=%v(%v) b=%v(%v)", a, sharedA, b, sharedB)
	}
}

func TestFlightErrorsReachEveryWaiterThenClear(t *testing.T) {
	var f Flight
	boom := errors.New("boom")
	if _, _, err := f.Do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error %v, want boom", err)
	}
	// The failed call must not poison the key: the next call runs afresh.
	v, shared, err := f.Do("k", func() (any, error) { return "fine", nil })
	if err != nil || shared || v != "fine" {
		t.Fatalf("key stayed poisoned after an error: v=%v shared=%v err=%v", v, shared, err)
	}
}

func TestFlightSurvivesPanickingCall(t *testing.T) {
	var f Flight
	started := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		f.Do("k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := f.Do("k", func() (any, error) { return "wrong flight", nil })
		waiter <- err
	}()
	// Panic only once the waiter has joined the leader's call.
	for {
		f.mu.Lock()
		joined := f.calls["k"] != nil && f.calls["k"].waiters == 1
		f.mu.Unlock()
		if joined {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	timeout := time.After(10 * time.Second)
	select {
	case v := <-leader:
		if v != "boom" {
			t.Fatalf("leader recovered %v, want the panic to keep unwinding", v)
		}
	case <-timeout:
		t.Fatal("leader never returned")
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, errFlightPanicked) {
			t.Fatalf("waiter got %v, want errFlightPanicked", err)
		}
	case <-timeout:
		t.Fatal("waiter blocked forever on a panicked call")
	}
	// The key is not poisoned: the next call runs fn afresh.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, shared, err := f.Do("k", func() (any, error) { return "fresh", nil })
		if err != nil || shared || v != "fresh" {
			t.Errorf("key poisoned after a panic: v=%v shared=%v err=%v", v, shared, err)
		}
	}()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("Do after a panicked call hung")
	}
}
