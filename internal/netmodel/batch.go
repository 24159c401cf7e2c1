package netmodel

import (
	"time"

	"asap/internal/cluster"
)

// PairStat is one ground-truth measurement: the RTT and loss between two
// endpoints. OK is false for disconnected pairs.
type PairStat struct {
	RTT  time.Duration
	Loss float64
	OK   bool
}

// ClusterStatsBatch fills out[i] with the ground-truth stats between
// owner and targets[i]. It is a loop over the one cache path
// (clusterPath): a three-pass form that visited each touched shard once
// measured 2.7x slower on a warm cache (DESIGN.md §15). out must be at
// least len(targets) long.
func (m *Model) ClusterStatsBatch(owner cluster.ClusterID, targets []cluster.ClusterID, out []PairStat) {
	for i, t := range targets {
		out[i] = m.clusterStats(owner, t)
	}
}
