package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/overlay"
)

// OneHopCandidate is a one-hop relay choice at cluster granularity: any
// end host of the cluster can serve as the relay, so the cluster
// contributes len(Hosts) candidate relay paths ("for each ip in cluster of
// r add ip to OS", Fig. 10).
type OneHopCandidate struct {
	Cluster cluster.ClusterID
	// EstRTT is the estimated relay path RTT: S1[r] + S2[r] + relay delay.
	EstRTT time.Duration
}

// TwoHopCandidate is a two-hop relay choice: any host pair drawn from the
// two clusters ("add ip1-ip2 to TS").
type TwoHopCandidate struct {
	First, Second cluster.ClusterID
	// EstRTT is S1[r1] + lat(r1,r2) + S2[r2] + two relay delays.
	EstRTT time.Duration
}

// Selection is the result of select-close-relay for one calling session.
type Selection struct {
	// Direct is the caller's measured direct RTT to the callee.
	Direct time.Duration
	// DirectOK reports whether the direct measurement succeeded.
	DirectOK bool
	// OneHop candidates in ascending (EstRTT, Cluster) order.
	OneHop []OneHopCandidate
	// TwoHop candidates in ascending (EstRTT, First, Second) order.
	TwoHop []TwoHopCandidate
	// OneHopHosts is |OS| in end-host units.
	OneHopHosts int
	// TwoHopPairs is |TS| in host-pair units.
	TwoHopPairs int64
	// Messages is the session's signalling/probe message count
	// (Figure 18's overhead metric).
	Messages int64
}

// QualityPaths returns the total candidate relay paths in end-host units,
// the paper's "number of quality paths" metric (Figures 11, 12, 17).
func (sel *Selection) QualityPaths() int64 {
	return int64(sel.OneHopHosts) + sel.TwoHopPairs
}

// mergeClose is the one-hop intersection of select-close-relay (Fig. 10),
// for System and Node.SetupCall alike. It walks a and b, each sorted by
// key with every key once, in one pass; for every shared key skip does
// not name whose estimate base + leg(a) + leg(b) is under limit, it calls
// emit with the index into a and the estimate, in key order.
func mergeClose[E any, K cmp.Ordered](a, b []E, leg func(E) (K, time.Duration), base, limit time.Duration, emit func(i int, est time.Duration), skip ...K) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		ka, la := leg(a[i])
		kb, lb := leg(b[j])
		switch {
		case ka < kb:
			i++
		case kb < ka:
			j++
		default:
			if est := base + la + lb; est < limit && !slices.Contains(skip, ka) {
				emit(i, est)
			}
			i++
			j++
		}
	}
}

func clusterLeg(e CloseCluster) (cluster.ClusterID, time.Duration) { return e.Cluster, e.RTT }

// rankByEst writes stage into out (of the same length) in ascending order
// of est, keeping staged order among equal estimates. It is a stable LSD
// radix sort over the bytes that the spread of the estimates uses (four
// passes at a 300 ms latT), ping-ponging between out and *buf so that the
// last pass lands in out; stage is only read. *buf grows when it is
// shorter than stage and allocates nothing otherwise.
func rankByEst[T any](out, stage []T, buf *[]T, est func(T) time.Duration) {
	if len(stage) == 0 {
		return
	}
	lo, hi := est(stage[0]), est(stage[0])
	for _, e := range stage[1:] {
		d := est(e)
		lo, hi = min(lo, d), max(hi, d)
	}
	passes := (bits.Len64(uint64(hi)-uint64(lo)) + 7) / 8
	if passes == 0 {
		copy(out, stage)
		return
	}
	if cap(*buf) < len(stage) {
		*buf = make([]T, len(stage))
	}
	tmp := (*buf)[:len(stage)]
	src := stage
	for p := range passes {
		dst := out
		if (passes-p)%2 == 0 {
			dst = tmp
		}
		shift := 8 * uint(p)
		var at [256]int
		for _, e := range src {
			at[byte((uint64(est(e))-uint64(lo))>>shift)]++
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, e := range src {
			b := byte((uint64(est(e)) - uint64(lo)) >> shift)
			dst[at[b]] = e
			at[b]++
		}
		src = dst
	}
}

func oneHopEst(c OneHopCandidate) time.Duration { return c.EstRTT }

func twoHopEst(c TwoHopCandidate) time.Duration { return c.EstRTT }

// noLeg marks a cluster outside S2 in the two-hop leg table. It is above
// any latT, and a sum of it with two legs under latT cannot overflow.
const noLeg = time.Duration(math.MaxInt64 / 2)

// SelectCloseRelay runs the Fig. 10 algorithm for a calling session from
// h1 to h2:
//
//  1. h1 measures the direct RTT to h2 (ping).
//  2. h1 fetches h2's close cluster set (2 messages).
//  3. One-hop: for every cluster r in S1 ∩ S2 with estimated relay RTT
//     under latT, every host of r joins the one-hop set OS.
//  4. If |OS| < sizeT, two-hop: for each one-hop cluster r1, fetch r1's
//     close set (2 messages each) and pair r1 with every r2 in OS1 ∩ S2
//     whose estimated relay RTT is under latT.
//
// The caller's own and callee's own clusters are excluded as relays.
func (s *System) SelectCloseRelay(h1, h2 cluster.HostID) (*Selection, error) {
	return s.SelectCloseRelayWith(h1, h2, s.prober)
}

// SelectCloseRelayWith is SelectCloseRelay with an explicit prober for the
// session's own measurements (the direct ping). Parallel harnesses pass a
// per-session sub-seeded prober so measurement noise does not depend on
// scheduling order; close-set probes are unaffected (they draw from
// per-cluster streams).
func (s *System) SelectCloseRelayWith(h1, h2 cluster.HostID, prober *netmodel.Prober) (*Selection, error) {
	if h1 == h2 {
		return nil, fmt.Errorf("core: session endpoints are the same host %d", h1)
	}
	if !s.Alive(h1) || !s.Alive(h2) {
		return nil, fmt.Errorf("core: session endpoint offline")
	}
	if prober == nil {
		prober = s.prober
	}
	ha, hb := s.pop.Host(h1), s.pop.Host(h2)
	sel := &Selection{}

	// Step 1: direct measurement (system utility such as ping: 2 msgs).
	sel.Messages += 2
	if rtt, ok := prober.WithCounters(nil).HostRTT(h1, h2); ok {
		sel.Direct, sel.DirectOK = rtt, true
	}

	s1, err := s.CloseSet(ha.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: caller close set: %w", err)
	}
	// Step 2: fetch S2 from h2 — the "one-hop relay node selection only
	// needs 2 messages" of Section 7.3.
	sel.Messages += 2
	s2, err := s.CloseSet(hb.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: callee close set: %w", err)
	}

	// A selection stages its candidates in key order and ranks them into
	// slices of their exact length, on one scratch for the whole run.
	sc := s.popScratch()
	defer s.pushScratch(sc)

	// Step 3: one-hop intersection, staged in cluster order.
	sc.oneHop = sc.oneHop[:0]
	mergeClose(s1.Clusters, s2.Clusters, clusterLeg, overlay.RelayRTT, s.params.LatT, func(i int, est time.Duration) {
		rc := s1.Clusters[i].Cluster
		sc.oneHop = append(sc.oneHop, OneHopCandidate{Cluster: rc, EstRTT: est})
		sel.OneHopHosts += len(s.pop.Cluster(rc).Hosts)
	}, ha.Cluster, hb.Cluster)
	if len(sc.oneHop) > 0 {
		sel.OneHop = make([]OneHopCandidate, len(sc.oneHop))
		rankByEst(sel.OneHop, sc.oneHop, &sc.oneHopBuf, oneHopEst)
	}

	// Step 4: two-hop expansion when the one-hop set is small: for each
	// winner r1, in cluster order, pair r1 with every r2 of OS1 ∩ S2 on
	// the S1[r1] leg and two relays. S2 is the same for every winner, so
	// it is indexed once as a leg table and each OS1 costs one pass. The
	// pairs are staged in (First, Second) order.
	if sel.OneHopHosts < s.params.SizeT {
		if sc.leg == nil {
			sc.leg = make([]time.Duration, s.pop.NumClusters())
			for i := range sc.leg {
				sc.leg[i] = noLeg
			}
		}
		for _, e := range s2.Clusters {
			sc.leg[e.Cluster] = e.RTT
		}
		sc.twoHop = sc.twoHop[:0]
		for _, oc := range sc.oneHop {
			r1 := oc.Cluster
			// h1 obtains r1's close cluster set: 2 messages.
			sel.Messages += 2
			os1, err := s.CloseSet(r1)
			if err != nil {
				continue // r1's cluster lost its surrogate; skip it
			}
			i, _ := slices.BinarySearchFunc(s1.Clusters, r1, func(e CloseCluster, c cluster.ClusterID) int { return cmp.Compare(e.Cluster, c) })
			base := s1.Clusters[i].RTT + 2*overlay.RelayRTT
			hosts1 := int64(len(s.pop.Cluster(r1).Hosts))
			for _, e := range os1.Clusters {
				r2 := e.Cluster
				est := base + e.RTT + sc.leg[r2]
				if est >= s.params.LatT || r2 == r1 || r2 == ha.Cluster || r2 == hb.Cluster {
					continue
				}
				sc.twoHop = append(sc.twoHop, TwoHopCandidate{First: r1, Second: r2, EstRTT: est})
				sel.TwoHopPairs += hosts1 * int64(len(s.pop.Cluster(r2).Hosts))
			}
		}
		for _, e := range s2.Clusters {
			sc.leg[e.Cluster] = noLeg
		}
		if len(sc.twoHop) > 0 {
			sel.TwoHop = make([]TwoHopCandidate, len(sc.twoHop))
			rankByEst(sel.TwoHop, sc.twoHop, &sc.twoHopBuf, twoHopEst)
		}
	}
	return sel, nil
}

// PickRelays converts the best candidates into concrete relay host
// choices for the voice path, preferring surrogate hosts as relays (they
// are the capable, stable members). It returns up to n distinct relay
// paths as host-ID slices (empty slice = direct). This mirrors the final
// step of Section 6.2: "the two end hosts pick the most suitable relay
// nodes for voice communication", and feeds path-diversity transports.
func (s *System) PickRelays(sel *Selection, n int) [][]cluster.HostID {
	if n <= 0 {
		return nil
	}
	out := make([][]cluster.HostID, 0, n)
	for _, oc := range sel.OneHop {
		if len(out) >= n {
			return out
		}
		if r, ok := s.Surrogate(oc.Cluster); ok {
			out = append(out, []cluster.HostID{r})
		}
	}
	for _, tc := range sel.TwoHop {
		if len(out) >= n {
			return out
		}
		r1, ok1 := s.Surrogate(tc.First)
		r2, ok2 := s.Surrogate(tc.Second)
		if ok1 && ok2 {
			out = append(out, []cluster.HostID{r1, r2})
		}
	}
	return out
}
