package sim

import "sync/atomic"

// Counters accumulates a message/probe count. The evaluation harness uses
// one Counters per calling session to reproduce the paper's overhead
// metric (Figure 18): "the number of generated messages to find the quality
// path relay nodes".
//
// Counters is safe for concurrent use, and its zero value is ready.
type Counters struct {
	total atomic.Int64
}

// NewCounters returns a zeroed counter.
func NewCounters() *Counters { return new(Counters) }

// Add adds n to the total. A nil *Counters discards it.
func (c *Counters) Add(n int64) {
	if c != nil {
		c.total.Add(n)
	}
}

// Total returns the sum of everything added.
func (c *Counters) Total() int64 { return c.total.Load() }
