// Package flight single-flights function calls per key: the first caller
// for a key leads and runs the function; callers arriving while it runs
// attach to it and share its value instead of running it again.
//
// It is the one coalescing primitive of the serving stack: the device's
// run reads, the engine's partition-scan registry, level-0 builds and merge
// steps all single-flight through a Group.
package flight

import (
	"context"
	"sync"
)

// Group single-flights calls per key. The zero value is ready to use; a
// Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one leader's in-flight execution. The leader fills val and err
// before closing done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do leads fn for key, or attaches to the in-flight call for key and shares
// its value. shared reports whether this caller attached (true) or led
// (false).
//
// ctx bounds only the wait of an attached caller and may be nil (wait
// without bound): a waiter whose ctx ends returns promptly with shared=true
// and ctx's error, and the leader is unaffected. fn runs under whatever
// context it closes over.
//
// A failed leader's error is not handed to its waiters. The leader
// deregisters before publishing, so its waiters re-enter: exactly one leads
// the retry and the rest attach to it. A leader's error is returned only to
// the leader itself.
//
// fn must not call Do for the same key on the same Group (it would wait on
// itself).
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			if err := wait(ctx, c.done); err != nil {
				return v, true, err
			}
			if c.err != nil {
				continue
			}
			return c.val, true, nil
		}
		if g.calls == nil {
			g.calls = make(map[K]*call[V])
		}
		c := &call[V]{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()

		// Deregister before publishing, so a waiter that sees the error
		// finds the key free (or held by a newer leader) when it re-enters.
		// A Forget since registration may have let a newer call take the
		// key; that registration is not ours to drop.
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
		return c.val, false, c.err
	}
}

// Forget drops every registration, so later callers lead afresh instead of
// attaching to a call that started before it. Leaders still deliver to the
// waiters already attached. It reports whether any registration was
// dropped.
func (g *Group[K, V]) Forget() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.calls) == 0 {
		return false
	}
	clear(g.calls)
	return true
}

// wait blocks until done closes or ctx (nil allowed) ends, returning ctx's
// error in the latter case.
func wait(ctx context.Context, done <-chan struct{}) error {
	if ctx == nil {
		<-done
		return nil
	}
	// ctx.Done() is nil for a context that never ends; a nil channel case is
	// never ready.
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
