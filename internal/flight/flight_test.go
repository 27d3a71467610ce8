package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// registered reports how many calls g holds in flight.
func registered[K comparable, V any](g *Group[K, V]) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// lead starts a leader for key on its own goroutine and returns once it is
// registered. Its fn blocks until release closes, then returns (val, err);
// done closes once Do has returned to the leader.
func lead[K comparable, V any](g *Group[K, V], key K, val V, err error) (release, done chan struct{}) {
	started := make(chan struct{})
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		g.Do(nil, key, func() (V, error) {
			close(started)
			<-release
			return val, err
		})
	}()
	<-started
	return release, done
}

// TestFlightGroupSingleRun pins the single-flight contract: while a call
// for a key is in flight, concurrent Do calls for the same key attach to
// it — exactly one fn runs, and every caller shares the leader's value.
func TestFlightGroupSingleRun(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do(nil, "k", func() (int, error) {
			runs.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if v != 42 || shared || err != nil {
			t.Errorf("leader: v=%d shared=%v err=%v", v, shared, err)
		}
	}()
	<-started

	// The leader cannot finish until release closes, so every follower
	// that calls Do before then attaches. The barrier plus settle delay
	// puts every follower at the Do doorstep first.
	const followers = 8
	var ready sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				return 0, nil
			})
			if v != 42 || !shared || err != nil {
				t.Errorf("follower: v=%d shared=%v err=%v, want the leader's 42 shared", v, shared, err)
			}
		}()
	}
	ready.Wait()
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", n)
	}
	if n := registered(&g); n != 0 {
		t.Fatalf("%d calls still registered after every caller returned", n)
	}
}

// TestFlightGroupReRunsAfterCompletion pins that completion clears the
// slot: a Do after the previous flight finished runs fn again rather than
// returning the stale result.
func TestFlightGroupReRunsAfterCompletion(t *testing.T) {
	var g Group[int, int]
	var runs int
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(nil, 7, func() (int, error) {
			runs++
			return runs, nil
		})
		if v != i+1 || shared || err != nil {
			t.Fatalf("call %d: v=%d shared=%v err=%v, want a fresh run", i, v, shared, err)
		}
	}
	if runs != 3 {
		t.Fatalf("fn ran %d times across sequential calls, want 3", runs)
	}
}

// TestFlightGroupDistinctKeysIndependent pins that flights for different
// keys do not serialize: a second key's fn runs to completion while the
// first key's flight is still blocked.
func TestFlightGroupDistinctKeysIndependent(t *testing.T) {
	var g Group[string, struct{}]
	release, done := lead(&g, "a", struct{}{}, nil)

	ran := false
	_, shared, err := g.Do(nil, "b", func() (struct{}, error) {
		ran = true
		return struct{}{}, nil
	})
	if shared || err != nil || !ran {
		t.Fatalf("Do(b) while Do(a) in flight: shared=%v err=%v ran=%v", shared, err, ran)
	}
	close(release)
	<-done
}

// TestFlightGroupFailedLeaderSingleRetry is the herd-regression contract:
// when a leader fails, its error goes to the leader alone; the parked
// waiters re-enter, exactly one of them leads the retry and the rest attach
// to it — one retry run, not one per waiter.
func TestFlightGroupFailedLeaderSingleRetry(t *testing.T) {
	var g Group[string, int]
	release, done := lead(&g, "k", 0, errors.New("boom"))

	var retries atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var attached atomic.Int64
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			v, shared, err := g.Do(nil, "k", func() (int, error) {
				retries.Add(1)
				<-gate
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("waiter: v=%d err=%v, want the retry's 7 (not the dead leader's error)", v, err)
			}
			if shared {
				attached.Add(1)
			}
		}()
	}
	// Park the herd on the doomed leader, then fail it.
	ready.Wait()
	time.Sleep(50 * time.Millisecond)
	close(release)
	<-done

	// Hold the retry open until the rest of the herd has re-entered.
	deadline := time.Now().Add(5 * time.Second)
	for retries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no waiter led the retry")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := retries.Load(); n != 1 {
		t.Fatalf("failed leader triggered %d retries, want exactly 1 (thundering herd)", n)
	}
	if n := attached.Load(); n != waiters-1 {
		t.Fatalf("%d waiters attached to the retry, want %d", n, waiters-1)
	}
}

// TestFlightGroupWaiterCancellation: a waiter whose context ends returns
// promptly with shared=true and the context's error, while the leader runs
// on undisturbed and a later caller still attaches to it.
func TestFlightGroupWaiterCancellation(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	leaderOut := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(nil, "k", func() (int, error) {
			runs.Add(1)
			close(started)
			<-release
			return 9, nil
		})
		leaderOut <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	_, shared, err := g.Do(ctx, "k", func() (int, error) {
		runs.Add(1)
		return 0, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: shared=%v err=%v, want shared with context.Canceled", shared, err)
	}

	// The leader is still in flight: a fresh caller attaches to it.
	late := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(nil, "k", func() (int, error) {
			runs.Add(1)
			return 0, nil
		})
		late <- v
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if v := <-leaderOut; v != 9 {
		t.Fatalf("leader returned %d after a waiter's cancellation, want 9", v)
	}
	if v := <-late; v != 9 {
		t.Fatalf("late waiter got %d, want the leader's 9", v)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

// TestFlightGroupForget pins Forget: it reports whether anything was
// registered; after it, a caller leads afresh instead of attaching, while
// the forgotten leader still delivers to the waiter already attached; and
// the forgotten leader, finishing, does not deregister the newer call.
func TestFlightGroupForget(t *testing.T) {
	var g Group[string, int]
	if g.Forget() {
		t.Fatal("Forget on an empty group reported a drop")
	}
	releaseOld, doneOld := lead(&g, "k", 1, nil)
	attachedOld := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(nil, "k", func() (int, error) { return -1, nil })
		attachedOld <- v
	}()
	time.Sleep(50 * time.Millisecond)

	if !g.Forget() {
		t.Fatal("Forget with a call in flight reported no drop")
	}
	if g.Forget() {
		t.Fatal("second Forget reported a drop")
	}

	// A post-Forget caller leads its own call for the same key.
	releaseNew, doneNew := lead(&g, "k", 2, nil)

	// The stale leader finishes: its attached waiter still gets its value,
	// and the newer registration survives.
	close(releaseOld)
	<-doneOld
	if v := <-attachedOld; v != 1 {
		t.Fatalf("waiter attached before Forget got %d, want the old leader's 1", v)
	}
	if n := registered(&g); n != 1 {
		t.Fatalf("%d calls registered after the stale leader finished, want the newer 1", n)
	}
	attachedNew := make(chan int, 1)
	go func() {
		v, shared, _ := g.Do(nil, "k", func() (int, error) { return -1, nil })
		if !shared {
			v = -1
		}
		attachedNew <- v
	}()
	time.Sleep(50 * time.Millisecond)
	close(releaseNew)
	<-doneNew
	if v := <-attachedNew; v != 2 {
		t.Fatalf("caller after the stale leader finished got %d, want to attach to the newer leader's 2", v)
	}
}
