package eval

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"asap/internal/asgraph"
	"asap/internal/core"
	"asap/internal/sim"
	"asap/internal/transport"
)

// Scale harness: stands up a synthetic 10^4..10^6-node virtual deployment
// with churn and a call workload, runs it on the sharded conservative-
// lookahead runner, and reports protocol outcomes plus resource numbers.
//
// The deployment is a pure function of (config, seed) and — critically —
// of NOTHING else: every join, leave, rejoin and call is anchored at an
// identity-derived absolute virtual time, pairwise latencies carry an
// identity-hashed nanosecond jitter so no two arrivals at a shared server
// tie, and the workload draws no randomness whose order could depend on
// the shard count. That is what makes the golden test meaningful: the
// merged outcome lines must be byte-identical at 1, 4 and 16 shards.
//
// Topology (synthetic, latency assigned by class rather than coordinates):
//
//	          core (AS 1, tier 1)
//	         /  |  \
//	   transit ASes (AS 10+t)          — scaleTransits of them
//	    /  |  \       \
//	 stub clusters   relay clusters    — stub c is a customer of transit
//	 (AS 100+c)      (AS 100+C+j)        c%T; relay clusters are customers
//	                                     of EVERY transit (multihomed), so
//	                                     they sit 8 ms from everyone.
//
// One-way latency classes: same cluster 2 ms; same transit, or either end
// in a relay cluster, 8 ms; cross-transit 50 ms; bootstrap links 15 ms.
// With LatT = 90 ms a cross-transit call is latent (direct RTT ~100 ms)
// and its only sub-threshold relays are the multihomed clusters
// (est ~= 16 + 16 + overlay.RelayRTT = 72 ms) — the fig. 17 relay-rescue
// shape, reproduced at whatever population the ladder asks for.
//
// Sharding: nodes are placed cluster % Shards, so same-cluster traffic
// (the 2 ms class) never crosses a shard and the minimum cross-shard
// latency — the conservative lookahead bound — is scaleLookahead = 8 ms.

const (
	scaleLookahead   = 8 * time.Millisecond
	scaleSameCluster = 2 * time.Millisecond
	scaleSameTransit = 8 * time.Millisecond
	scaleCross       = 50 * time.Millisecond
	scaleBootstrap   = 15 * time.Millisecond
	// scaleJitterMask bounds the per-pair latency hash jitter to <1024 ns,
	// well under the 2 us join stagger, so jitter can de-tie concurrent
	// arrivals but never reorder distinct scheduled actions.
	scaleJitterMask = 1023
	// scaleLatT makes cross-transit calls latent and relay paths viable.
	scaleLatT = 90 * time.Millisecond
	// scaleTransits is the number of transit ASes.
	scaleTransits = 4
	// scaleRelayClusters is the number of multihomed relay clusters.
	// Their seed members join first so every later surrogate's close set
	// includes them.
	scaleRelayClusters = 4
	// scaleLeaseTTL is the bootstrap surrogate lease, short enough that
	// re-election succeeds inside the call window.
	scaleLeaseTTL = 2 * time.Second
)

// ScaleConfig sizes one scale-harness deployment.
type ScaleConfig struct {
	// Nodes is the total resident population, bootstrap excluded.
	Nodes int
	// Shards is the conservative-runner shard count (1 = sequential).
	Shards int
	// Calls is the size of the call workload. Callers and callees are
	// plain members; 3 of 4 calls are cross-transit (latent), 1 of 4
	// same-transit (direct-quality).
	Calls int
	// Leavers is how many nodes churn out mid-workload (closed and
	// unbound); each rejoins 300 ms later under a fresh address. Every
	// fourth leaver is a cluster's founding member — i.e. its surrogate —
	// forcing lease expiry and member re-election on the live paths.
	Leavers int
	// Seed roots every node's retry-jitter stream. No deployment draws
	// jitter (no RetryPolicy sets Jitter), so outcomes do not depend on
	// it; TestScaleOutcomesIgnoreSeed holds that.
	Seed int64
	// RecordOutcomes retains the per-call golden lines in the report.
	// Ladder runs at 10^6 switch it off to save the strings.
	RecordOutcomes bool
	// MeasureBytes audits resident bytes per node (forces two GC cycles;
	// wall-time noise only, never part of the golden output).
	MeasureBytes bool
}

// scaleClusters is the number of regular stub clusters for a population
// of nodes: one per 250 nodes, at least 2*scaleTransits so cross- and
// same-transit pairs both exist, at most 2048, rounded up to a transit
// multiple: the same-transit call pairing (ca, ca+scaleTransits mod
// clusters) needs the wrap to preserve transit class.
func scaleClusters(nodes int) int {
	c := min(max(nodes/250, 2*scaleTransits), 2048)
	return (c + scaleTransits - 1) / scaleTransits * scaleTransits
}

// ScaleReport is one deployment's outcome.
type ScaleReport struct {
	Nodes    int
	Shards   int
	Clusters int
	// Events is the total executed virtual-event count across shards —
	// the events/sec numerator for the bench harness.
	Events uint64
	// Horizon is the virtual time the deployment ran to.
	Horizon time.Duration
	// Calls breakdown. Latent counts calls whose direct RTT >= LatT;
	// Relayed counts those the protocol rescued through a relay.
	Calls, Latent, Relayed, Degraded, Failed int
	// MeanRelayEst averages EstRTT over relayed calls (fig. 17's quality
	// axis extended to this population).
	MeanRelayEst time.Duration
	// BytesPerNode is the post-run resident heap delta divided by Nodes
	// (0 unless MeasureBytes).
	BytesPerNode float64
	// Outcomes is the golden output: one line per call in workload order
	// (nil unless RecordOutcomes).
	Outcomes []string
}

// scaleWorld is the precomputed identity plan: every address the
// deployment will ever bind, with its cluster/transit/shard placement.
type scaleWorld struct {
	cfg ScaleConfig
	// clusters is the regular stub cluster count (scaleClusters): node
	// placement puts regular clusters at 0..clusters-1 and the relay
	// clusters after them.
	clusters int
	graph    *asgraph.Graph
	prefixes []core.PrefixOrigin
	addrOf   []transport.Addr
	rejoinOf []transport.Addr // non-empty for leavers
	ipOf     []string
	// info resolves any bindable address for the latency fn and shardOf.
	info map[transport.Addr]scaleAddrInfo
	bs   transport.Addr
}

type scaleAddrInfo struct {
	cluster int
	transit int // -1 for relay clusters and the bootstrap
	shard   int
}

// clusterTransit maps a cluster to its transit (-1 for relay clusters).
func (w *scaleWorld) clusterTransit(c int) int {
	if c >= w.clusters {
		return -1
	}
	return c % scaleTransits
}

// scaleHash is FNV-1a over the two address strings — the per-pair jitter
// source. Allocation-free: latency runs on every message.
func scaleHash(a, b transport.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	h = (h ^ '|') * 1099511628211
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// buildScaleWorld lays out the AS graph, prefixes and the full address
// plan for cfg. Node i's cluster: the first scaleRelayClusters indices seed
// the relay clusters (so they elect first and appear in everyone's close
// set); the rest cycle through the regular clusters.
func buildScaleWorld(cfg ScaleConfig) *scaleWorld {
	w := &scaleWorld{
		cfg:      cfg,
		clusters: scaleClusters(cfg.Nodes),
		addrOf:   make([]transport.Addr, cfg.Nodes),
		rejoinOf: make([]transport.Addr, cfg.Nodes),
		ipOf:     make([]string, cfg.Nodes),
		info:     make(map[transport.Addr]scaleAddrInfo, cfg.Nodes+cfg.Leavers+1),
		bs:       "bs",
	}
	b := asgraph.NewBuilder()
	b.AddNode(asgraph.Node{ASN: 1, Tier: asgraph.TierT1})
	for t := 0; t < scaleTransits; t++ {
		b.AddNode(asgraph.Node{ASN: asgraph.ASN(10 + t), Tier: asgraph.TierTransit})
		b.AddEdge(asgraph.ASN(10+t), 1, asgraph.RelC2P)
	}
	total := w.clusters + scaleRelayClusters
	for c := 0; c < total; c++ {
		asn := asgraph.ASN(100 + c)
		b.AddNode(asgraph.Node{ASN: asn, Tier: asgraph.TierStub})
		if c < w.clusters {
			b.AddEdge(asn, asgraph.ASN(10+c%scaleTransits), asgraph.RelC2P)
		} else {
			for t := 0; t < scaleTransits; t++ {
				b.AddEdge(asn, asgraph.ASN(10+t), asgraph.RelC2P)
			}
		}
		w.prefixes = append(w.prefixes, core.PrefixOrigin{
			Prefix: scaleClusterPrefix(c), ASN: asn,
		})
	}
	w.graph = b.Build()
	w.info[w.bs] = scaleAddrInfo{cluster: -1, transit: -1, shard: 0}

	rank := make([]int, total) // members placed so far per cluster
	for i := 0; i < cfg.Nodes; i++ {
		c := scaleClusterOfIndex(w.clusters, i)
		addr := transport.Addr(fmt.Sprintf("n%07d", i))
		w.addrOf[i] = addr
		w.ipOf[i] = scaleMemberIP(c, rank[c])
		rank[c]++
		w.info[addr] = scaleAddrInfo{cluster: c, transit: w.clusterTransit(c), shard: c % cfg.Shards}
	}
	for _, idx := range scaleLeavers(cfg, w.clusters) {
		re := transport.Addr(fmt.Sprintf("n%07d.r", idx))
		w.rejoinOf[idx] = re
		w.info[re] = w.info[w.addrOf[idx]]
	}
	return w
}

// scaleLeavers picks the churn set: spread across the population,
// skipping relay seeds (the relay clusters must stay up for the latent
// calls). Every fourth pick is a cluster's founding member — its
// surrogate — to exercise lease expiry and member re-election. Shared by
// the world builder (rejoin addresses) and the planner (timetable).
func scaleLeavers(cfg ScaleConfig, clusters int) []int {
	if cfg.Leavers <= 0 {
		return nil
	}
	stride := (cfg.Nodes - scaleRelayClusters) / cfg.Leavers
	if stride < 1 {
		stride = 1
	}
	var out []int
	seen := make(map[int]bool, cfg.Leavers)
	for j := 0; len(out) < cfg.Leavers && j < 4*cfg.Leavers; j++ {
		var idx int
		if j%4 == 0 {
			idx = scaleRelayClusters + (j/4)%clusters // a surrogate
		} else {
			idx = scaleRelayClusters + (j*stride+7)%(cfg.Nodes-scaleRelayClusters)
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		out = append(out, idx)
	}
	return out
}

func scaleClusterOfIndex(clusters, i int) int {
	if i < scaleRelayClusters {
		return clusters + i
	}
	return (i - scaleRelayClusters) % clusters
}

// scaleClusterPrefix gives cluster c a private /16, one per cluster, so a
// cluster can hold up to ~65k members.
func scaleClusterPrefix(c int) string {
	return fmt.Sprintf("%d.%d.0.0/16", 10+c>>8, c&255)
}

// scaleMemberIP is the r-th member's address inside cluster c's /16.
func scaleMemberIP(c, r int) string {
	h := r + 1
	return fmt.Sprintf("%d.%d.%d.%d", 10+c>>8, c&255, h>>8, h&255)
}

// latency is the deployment's one-way delay function (class base plus
// identity-hashed sub-microsecond jitter; see the class table above).
func (w *scaleWorld) latency(from, to transport.Addr) time.Duration {
	j := time.Duration(scaleHash(from, to) & scaleJitterMask)
	fi, fok := w.info[from]
	ti, tok := w.info[to]
	if !fok || !tok || fi.cluster == -1 || ti.cluster == -1 {
		return scaleBootstrap + j
	}
	switch {
	case fi.cluster == ti.cluster:
		return scaleSameCluster + j
	case fi.transit == -1 || ti.transit == -1 || fi.transit == ti.transit:
		return scaleSameTransit + j
	default:
		return scaleCross + j
	}
}

func (w *scaleWorld) shardOf(a transport.Addr) int {
	if ai, ok := w.info[a]; ok {
		return ai.shard
	}
	return 0
}

// scaleCall is one planned workload call.
type scaleCall struct {
	at             time.Duration
	caller, callee int // node indices
}

// scalePlan fixes the whole timetable. Everything below is arithmetic on
// identities — no RNG — so the plan is independent of shard count.
type scalePlan struct {
	joinAt  []time.Duration
	joinEnd time.Duration
	leavers []int // node indices that churn out
	leaveAt []time.Duration
	calls   []scaleCall
	horizon time.Duration
}

const (
	scaleJoinStep  = 2 * time.Microsecond
	scaleCallStep  = 797 * time.Microsecond
	scaleLeaveStep = 1571 * time.Microsecond
	scaleRejoin    = 300 * time.Millisecond
)

func planScale(w *scaleWorld) *scalePlan {
	cfg, clusters := w.cfg, w.clusters
	p := &scalePlan{joinAt: make([]time.Duration, cfg.Nodes)}
	for i := 0; i < cfg.Nodes; i++ {
		p.joinAt[i] = 10*time.Millisecond + time.Duration(i)*scaleJoinStep
	}
	p.joinEnd = p.joinAt[cfg.Nodes-1] + 500*time.Millisecond // worst join ~2 RPCs at 15 ms legs + slack
	workStart := p.joinEnd + 100*time.Millisecond

	p.leavers = scaleLeavers(cfg, clusters)
	leaverSet := make(map[int]bool, len(p.leavers))
	for j, idx := range p.leavers {
		leaverSet[idx] = true
		p.leaveAt = append(p.leaveAt,
			workStart+37*time.Microsecond+time.Duration(j)*scaleLeaveStep)
	}

	// Calls: caller from cluster ca, callee from cluster cb; k%4 == 0 is
	// same-transit (direct-quality; cluster offset scaleTransits keeps
	// the transit class because clusters is a transit multiple), the rest
	// cross-transit (latent; the offset is never a multiple of
	// scaleTransits, so the transit class always changes). memberAt(c, r)
	// = scaleRelayClusters + c + r*clusters is the r-th non-founding member of
	// cluster c. Leavers never originate calls (their task could die
	// mid-call); dead callees are fair game — a failed call is an
	// outcome too.
	memberAt := func(c, r int) int { return scaleRelayClusters + c + r*clusters }
	maxRank := (cfg.Nodes - scaleRelayClusters) / clusters
	liveMember := func(c, r int) int {
		for tries := 0; tries < maxRank; tries++ {
			idx := memberAt(c, 1+(r-1+tries)%maxRank)
			if idx < cfg.Nodes && !leaverSet[idx] {
				return idx
			}
		}
		return -1
	}
	for k := 0; k < cfg.Calls; k++ {
		ca := k % clusters
		var cb int
		if k%4 == 0 {
			cb = (ca + scaleTransits) % clusters
		} else {
			span := clusters/scaleTransits - 1
			if span < 1 {
				span = 1
			}
			off := 1 + k%(scaleTransits-1) + scaleTransits*((k/7)%span)
			cb = (ca + off) % clusters
		}
		caller := liveMember(ca, 1+(k/clusters)%maxRank)
		callee := memberAt(cb, 1+(k/clusters+1)%maxRank)
		if callee >= cfg.Nodes {
			callee = memberAt(cb, 1)
		}
		if caller < 0 || callee >= cfg.Nodes || caller == callee {
			continue
		}
		p.calls = append(p.calls, scaleCall{
			at:     workStart + 191*time.Microsecond + time.Duration(k)*scaleCallStep,
			caller: caller, callee: callee,
		})
	}

	end := workStart
	if n := len(p.calls); n > 0 {
		end = p.calls[n-1].at
	}
	if n := len(p.leavers); n > 0 {
		if t := p.leaveAt[n-1] + scaleRejoin; t > end {
			end = t
		}
	}
	// Generous drain margin: retries, re-elections and lease expiry end
	// well inside it (10^5 nodes: last call at 1.7 s, horizon 8.4 s).
	p.horizon = end + scaleLeaseTTL + 5*time.Second
	return p
}

// scaleOutcome is one call's recorded result, written only by its own
// caller task (no locks: the slice is preallocated and each index has a
// single writer; Run's completion orders the writes before the read).
type scaleOutcome struct {
	done    bool
	relay   transport.Addr
	est     time.Duration
	direct  time.Duration
	degr    bool
	voiceOK bool
	err     string
}

// RunScale executes one scale deployment and returns its report. The
// golden contract: for a fixed config-minus-Shards and seed, Outcomes is
// byte-identical at every shard count.
func RunScale(cfg ScaleConfig) (*ScaleReport, error) {
	cfg.Shards = max(cfg.Shards, 1)
	if clusters := scaleClusters(cfg.Nodes); cfg.Nodes < scaleRelayClusters+2*clusters {
		return nil, fmt.Errorf("eval: scale needs >= %d nodes for %d clusters (got %d)",
			scaleRelayClusters+2*clusters, clusters, cfg.Nodes)
	}
	w := buildScaleWorld(cfg)
	plan := planScale(w)

	var baseline uint64
	if cfg.MeasureBytes {
		baseline = scaleHeapBytes()
	}

	runner := sim.NewShardRunner(cfg.Shards, scaleLookahead)
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	mem.Latency = w.latency
	mem.EnableSharding(runner, w.shardOf)

	params := core.DefaultParams()
	params.K = 2
	params.LatT = scaleLatT

	bsClock := runner.Clock(0)
	var bsErr error
	bsClock.At(0, func() {
		_, bsErr = core.NewBootstrap(mem, w.bs, core.BootstrapConfig{
			Graph:    w.graph,
			Prefixes: w.prefixes,
			K:        params.K,
			LeaseTTL: scaleLeaseTTL,
			Sched:    bsClock,
		})
	})

	// Joins, leaves, rejoins and calls are all scheduled as absolute-time
	// tasks on their owner shard's clock (Clock.At runs the callback as
	// its own task, so the blocking join RPCs are fine). nodes[idx] is
	// only ever touched from idx's own shard, so the slice needs no lock;
	// runner.Run's completion orders the final reads after every write.
	nodes := make([]*core.Node, cfg.Nodes)
	spawn := func(idx int, addr transport.Addr, at time.Duration) {
		clk := runner.Clock(w.shardOf(addr))
		clk.At(at, func() {
			n, err := core.NewNode(mem, addr, core.NodeConfig{
				IP:        w.ipOf[idx],
				Bootstrap: w.bs,
				Params:    params,
				Sched:     clk,
				Seed:      cfg.Seed,
			})
			if err == nil {
				nodes[idx] = n
			}
		})
	}
	for i := 0; i < cfg.Nodes; i++ {
		spawn(i, w.addrOf[i], plan.joinAt[i])
	}
	for j, idx := range plan.leavers {
		idx, at := idx, plan.leaveAt[j]
		clk := runner.Clock(w.shardOf(w.addrOf[idx]))
		clk.At(at, func() {
			if n := nodes[idx]; n != nil {
				n.Close()
				mem.Unbind(n.Addr())
				nodes[idx] = nil
			}
		})
		spawn(idx, w.rejoinOf[idx], at+scaleRejoin)
	}

	outcomes := make([]scaleOutcome, len(plan.calls))
	const frames = 320
	for k := range plan.calls {
		k := k
		call := plan.calls[k]
		clk := runner.Clock(w.shardOf(w.addrOf[call.caller]))
		clk.At(call.at, func() {
			o := &outcomes[k]
			o.done = true
			n := nodes[call.caller]
			if n == nil {
				o.err = "caller not joined"
				return
			}
			callee := w.addrOf[call.callee]
			choice, err := n.SetupCall(callee)
			if err != nil {
				o.err = err.Error()
				return
			}
			o.relay, o.est, o.direct, o.degr = choice.Relay, choice.EstRTT, choice.Direct, choice.Degraded
			if err := n.SendVoice(choice, callee, make([]byte, frames), 1); err != nil {
				o.err = err.Error()
				return
			}
			o.voiceOK = true
		})
	}

	runner.Run(plan.horizon)

	rep := &ScaleReport{
		Nodes:    cfg.Nodes,
		Shards:   cfg.Shards,
		Clusters: w.clusters,
		Events:   runner.Executed(),
		Horizon:  plan.horizon,
		Calls:    len(plan.calls),
	}
	if bsErr != nil {
		return nil, fmt.Errorf("eval: scale bootstrap: %w", bsErr)
	}
	var relaySum time.Duration
	for k := range plan.calls {
		o := &outcomes[k]
		switch {
		case !o.done || o.err != "":
			rep.Failed++
		case o.degr:
			rep.Degraded++
		}
		if o.done && o.err == "" && o.direct >= scaleLatT {
			rep.Latent++
			if o.relay != "" {
				rep.Relayed++
				relaySum += o.est
			}
		}
		if cfg.RecordOutcomes {
			rep.Outcomes = append(rep.Outcomes, fmt.Sprintf(
				"call %d: %d->%d relay=%q est=%v direct=%v degraded=%v voice=%v err=%q",
				k, plan.calls[k].caller, plan.calls[k].callee,
				o.relay, o.est, o.direct, o.degr, o.voiceOK, o.err))
		}
	}
	if rep.Relayed > 0 {
		rep.MeanRelayEst = relaySum / time.Duration(rep.Relayed)
	}
	if cfg.MeasureBytes {
		after := scaleHeapBytes()
		if after > baseline {
			rep.BytesPerNode = float64(after-baseline) / float64(cfg.Nodes)
		}
	}
	return rep, nil
}

// scaleHeapBytes reads the live-heap size after settling the GC twice
// (the first cycle queues finalizers, the second collects what they
// release).
func scaleHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// GoldenDigest flattens the outcome lines for byte-comparison in tests
// and for the bench harness's reproducibility stamp.
func (r *ScaleReport) GoldenDigest() string {
	var sb strings.Builder
	for _, line := range r.Outcomes {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "calls=%d latent=%d relayed=%d degraded=%d failed=%d meanRelayEst=%v\n",
		r.Calls, r.Latent, r.Relayed, r.Degraded, r.Failed, r.MeanRelayEst)
	return sb.String()
}
