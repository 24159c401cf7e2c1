// Package core implements the ASAP protocol of Section 6: an AS-aware,
// fast, low-overhead peer-relay selection protocol for VoIP.
//
// The system has three node roles:
//
//   - Bootstraps: dedicated always-on servers that build the annotated AS
//     graph and the IP-prefix -> {ASN, surrogate} mapping tables, answer
//     join requests, and re-seat surrogates on failure.
//   - Cluster surrogates: the most capable peer of each IP-prefix cluster;
//     each constructs its cluster's close cluster set with a valley-free
//     bounded BFS over the AS graph (construct-close-cluster-set, Fig. 9)
//     and serves it to cluster members.
//   - End hosts: run select-close-relay (Fig. 10) at call time,
//     intersecting the two endpoints' close cluster sets to produce
//     one-hop relay candidates and expanding to two-hop candidates when
//     the one-hop set is too small.
//
// This package provides both the algorithmic layer used by the evaluation
// (System) and the message-level actors used by the runnable daemon
// (Bootstrap, Surrogate, EndHost over internal/transport).
package core

import (
	"fmt"
	"time"

	"asap/internal/netmodel"
)

// Params are the ASAP protocol parameters from Sections 6.2 and 7.1.
type Params struct {
	// K bounds the valley-free BFS ("we can set k to 4 in practice":
	// >90% of sub-300ms paths have <= 4 AS hops).
	K int
	// LatT is the close-set latency threshold ("latT can be set close to
	// 300 ms").
	LatT time.Duration
	// LossT is the close-set loss-rate threshold.
	LossT float64
	// SizeT is the one-hop relay-set size (in end-host units) below which
	// two-hop selection starts ("We set sizeT in select-close-relay() of
	// ASAP to 300").
	SizeT int
}

// DefaultParams returns the paper's evaluation parameters.
func DefaultParams() Params {
	return Params{
		K:     4,
		LatT:  netmodel.QualityRTT, // 300 ms
		LossT: 0.05,
		SizeT: 300,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.K < 1:
		return fmt.Errorf("core: K must be >= 1, got %d", p.K)
	case p.LatT <= 0:
		return fmt.Errorf("core: LatT must be > 0, got %v", p.LatT)
	case p.LossT <= 0 || p.LossT > 1:
		return fmt.Errorf("core: LossT must be in (0,1], got %g", p.LossT)
	case p.SizeT < 0:
		return fmt.Errorf("core: SizeT must be >= 0, got %d", p.SizeT)
	}
	return nil
}
