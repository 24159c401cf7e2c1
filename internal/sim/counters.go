package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters accumulates named message/probe counts. The evaluation harness
// uses one Counters per calling session to reproduce the paper's overhead
// metric (Figure 18): "the number of generated messages to find the quality
// path relay nodes".
//
// Counters is safe for concurrent use.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]int64)}
}

// Add increments the named counter by n. A nil *Counters discards it.
func (c *Counters) Add(name string, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += n
}

// Get returns the named counter's value.
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Total returns the sum of all counters.
func (c *Counters) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, v := range c.m {
		t += v
	}
	return t
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// String renders the counters sorted by name, for logs and test failures.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}
