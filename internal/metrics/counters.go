package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (or explicitly set) int64 gauge safe
// for concurrent use. The zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Add adds n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Set overwrites the value (for gauges like queue depth).
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterSet is a named registry of counters for a serving component. Lookups
// after first use are lock-free on the Counter itself; creation is guarded.
type CounterSet struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// NewCounterSet returns an empty counter registry.
func NewCounterSet() *CounterSet {
	return &CounterSet{m: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it on first use.
func (s *CounterSet) Counter(name string) *Counter {
	s.mu.RLock()
	c, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.m[name]; ok {
		return c
	}
	c = &Counter{}
	s.m[name] = c
	return c
}

// Snapshot returns a point-in-time copy of every counter value.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.m))
	for name, c := range s.m {
		out[name] = c.Value()
	}
	return out
}

// Names lists registered counter names sorted, for stable reporting.
func (s *CounterSet) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for name := range s.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
