package session

import (
	"fmt"
	"slices"
	"time"

	"asap/internal/transport"
)

// Batched probing (DESIGN.md §15). A monitor tick measures every
// session's active and backup paths; with a scalar Driver each path is
// its own round trip. BatchDriver lets the driver see the whole tick's
// path set at once, so it can coalesce probes that share a wire
// destination (the relay, or the callee on direct paths) into one
// MsgProbeBatch round trip and fan the reply back out — the per-path
// E-Model samples the manager commits are the same either way.

// PathRequest identifies one voice path to measure: through Relay
// (empty = direct) to Callee.
type PathRequest struct {
	Relay  transport.Addr
	Callee transport.Addr
}

// PathResult is one measured path, aligned index-for-index with the
// request slice.
type PathResult struct {
	RTT  time.Duration
	Loss float64
	Err  error
}

// BatchDriver is an optional Driver extension. ProbePaths measures all
// requested paths and returns one result per request, in order.
// Implementations are free to reorder and coalesce the underlying wire
// traffic; *core.Node groups requests per destination. reqs is the
// manager's buffer, reused next tick: ProbePaths must not keep it.
type BatchDriver interface {
	Driver
	ProbePaths(reqs []PathRequest) []PathResult
}

// runPlansBatched is probeTick's I/O phase against a BatchDriver: the
// tick's paths flatten into one request slice, travel as one ProbePaths
// call, and scatter back into the per-plan result slots the commit
// phase reads. Media polls are snapshots (no I/O), so they run inline.
func (m *Manager) runPlansBatched(bd BatchDriver, plans []probePlan) {
	total := 0
	for i := range plans {
		total += len(plans[i].paths)
	}
	reqs := slices.Grow(m.reqs[:0], total)
	for i := range plans {
		p := &plans[i]
		for j := range p.paths {
			reqs = append(reqs, PathRequest{Relay: p.paths[j].cand.Relay, Callee: p.callee})
		}
	}
	m.reqs = reqs
	res := bd.ProbePaths(reqs)
	k := 0
	for pi := range plans {
		p := &plans[pi]
		for i := range p.paths {
			pp := &p.paths[i]
			if k < len(res) {
				pp.rtt, pp.loss, pp.err = res[k].RTT, res[k].Loss, res[k].Err
			} else {
				pp.err = fmt.Errorf("session: batch driver returned %d results for %d requests", len(res), len(reqs))
			}
			k++
		}
		if p.media != nil {
			p.mstats, p.mok = p.media()
		}
	}
}
