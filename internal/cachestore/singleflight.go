package cachestore

import (
	"fmt"
	"sync"
)

// flightCall is one in-flight load; waiters block on wg and then read val
// and err, which the executor writes before wg.Done.
type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// Do runs fn for key with singleflight semantics: while one execution is in
// flight, concurrent callers for the same key wait and share its result
// instead of running their own. shared reports whether the result came from
// another caller's execution. Do itself never reads or writes the store —
// callers compose it with Get/Put (or use GetOrLoad) when the result should
// be cached.
func (s *Store[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	return s.do(key, func() (V, error) {
		s.loads.Add(1)
		return fn()
	})
}

// do is Do without the load count, for callers whose flight may end
// without running a loader.
func (s *Store[V]) do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	s.flight.mu.Lock()
	if c, ok := s.flight.calls[key]; ok {
		s.flight.mu.Unlock()
		c.wg.Wait()
		s.loadsShared.Add(1)
		return c.val, true, c.err
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	s.flight.calls[key] = c
	s.flight.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			// Fail the waiters before re-panicking, so a loader panic
			// can never strand goroutines on wg.Wait.
			c.err = fmt.Errorf("cachestore: load for %q panicked: %v", key, r)
			s.flight.mu.Lock()
			delete(s.flight.calls, key)
			s.flight.mu.Unlock()
			c.wg.Done()
			panic(r)
		}
		s.flight.mu.Lock()
		delete(s.flight.calls, key)
		s.flight.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}

// GetOrLoad returns the cached value for key, or runs load — exactly once
// across concurrent callers of the same key — and stores the result on
// success. Each call counts exactly one of a hit, a load or a shared
// load. Callers that need finer control (TTLs, negative caching) use
// Get/Peek/Put and Do directly.
func (s *Store[V]) GetOrLoad(key string, load func() (V, error)) (V, error) {
	if v, ok := s.Get(key); ok {
		return v, nil
	}
	v, _, err := s.do(key, func() (V, error) {
		// Re-check inside the flight: a previous flight may have stored
		// the value between our miss and our turn. That counts as a hit,
		// not a load.
		if v, ok := s.Get(key); ok {
			return v, nil
		}
		s.loads.Add(1)
		v, err := load()
		if err == nil {
			s.Put(key, v)
		}
		return v, err
	})
	return v, err
}
