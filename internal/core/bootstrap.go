package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/sim"
	"asap/internal/transport"
)

// This file (with member.go, closeset.go, callsetup.go and voice.go) is
// the deployable, message-passing realization of ASAP: the Bootstrap,
// Surrogate and EndHost actors of Section 6.1, written against
// transport.Transport so the same code runs over the in-memory transport
// (tests, simulation) and real TCP (cmd/asapd, examples/livenet).
//
// The actor layer implements join, surrogate registration, close-cluster-
// set construction by live pinging, nodal-info publication, call setup
// with one-hop select-close-relay, and voice forwarding through the
// chosen relay. Call setup runs System's merge (mergeClose) with two
// declared differences: it also admits a relay that beats the call's own
// direct path, and it has no two-hop, as a voice path carries one relay.
//
// Control-plane churn tolerance (Section 6.1's failure duties):
//
//   - Surrogate registrations are leases, claimed and renewed by one
//     heartbeat message; the claim is compare-and-swap — a live incumbent
//     wins, so concurrent joiners converge on one surrogate per cluster.
//   - Every control call retries with capped exponential backoff
//     (RetryPolicy); only transport-level failures are retried.
//   - A member whose surrogate stops answering re-joins, volunteers when
//     the bootstrap confirms the cluster is vacant, and republishes its
//     nodal info ("end hosts volunteer when the incumbent is gone").
//   - Call setup degrades instead of failing: when the close set or the
//     callee's surrogate is unreachable, the call proceeds direct and is
//     marked Degraded; the live session monitor upgrades it later.

// BootstrapConfig seeds a bootstrap node.
type BootstrapConfig struct {
	// Graph is the annotated AS graph the bootstrap maintains from BGP
	// feeds (duty 1 of Section 6.1).
	Graph *asgraph.Graph
	// Prefixes maps every routed prefix to its origin AS (duty 2).
	Prefixes []PrefixOrigin
	// K is the valley-free hop bound handed to surrogates.
	K int
	// LeaseTTL is how long a surrogate registration stays valid without a
	// heartbeat renewal. Zero disables expiry — the pre-lease behaviour
	// where a dead surrogate is handed out forever (the churn experiment's
	// baseline arm).
	LeaseTTL time.Duration
	// Sched is the bootstrap's time source for lease expiry. Nil means
	// real time.
	Sched sim.Scheduler
}

// PrefixOrigin is one prefix-to-origin-AS row.
type PrefixOrigin struct {
	Prefix string
	ASN    asgraph.ASN
}

// DemoBootstrapConfig returns the built-in demo deployment, Figure 4's
// shortcut in miniature: stub clusters AS100 (10.100/16) and AS200
// (10.200/16) sit far apart under different tier-1s, and multi-homed
// AS300 (10.30/16) is close to both, so its surrogate is the natural
// relay.
//
//	AS1 -p2p- AS2; AS10 c2p AS1; AS20 c2p AS2;
//	AS100 c2p AS10; AS200 c2p AS20; AS300 c2p {AS10, AS20}
func DemoBootstrapConfig() BootstrapConfig {
	b := asgraph.NewBuilder()
	b.AddNode(asgraph.Node{ASN: 1, Tier: asgraph.TierT1, X: 0, Y: 0})
	b.AddNode(asgraph.Node{ASN: 2, Tier: asgraph.TierT1, X: 1000, Y: 0})
	b.AddNode(asgraph.Node{ASN: 10, Tier: asgraph.TierTransit, X: 0, Y: 500})
	b.AddNode(asgraph.Node{ASN: 20, Tier: asgraph.TierTransit, X: 1000, Y: 500})
	b.AddNode(asgraph.Node{ASN: 100, Tier: asgraph.TierStub, X: 0, Y: 1000})
	b.AddNode(asgraph.Node{ASN: 200, Tier: asgraph.TierStub, X: 1000, Y: 1000})
	b.AddNode(asgraph.Node{ASN: 300, Tier: asgraph.TierStub, X: 500, Y: 800})
	b.AddEdge(1, 2, asgraph.RelP2P)
	b.AddEdge(10, 1, asgraph.RelC2P)
	b.AddEdge(20, 2, asgraph.RelC2P)
	b.AddEdge(100, 10, asgraph.RelC2P)
	b.AddEdge(200, 20, asgraph.RelC2P)
	b.AddEdge(300, 10, asgraph.RelC2P)
	b.AddEdge(300, 20, asgraph.RelC2P)
	return BootstrapConfig{
		Graph: b.Build(),
		K:     4,
		Prefixes: []PrefixOrigin{
			{Prefix: "10.100.0.0/16", ASN: 100},
			{Prefix: "10.200.0.0/16", ASN: 200},
			{Prefix: "10.30.0.0/16", ASN: 300},
		},
	}
}

// surrogateLease is one cluster's registration: who serves it and until
// when (a scheduler offset). A zero expiry never expires (leases
// disabled; scheduler time starts positive only after the first tick, so
// zero is free as a sentinel — TTL > 0 always yields expires > 0).
type surrogateLease struct {
	addr    transport.Addr
	expires time.Duration
}

// Bootstrap is the dedicated always-on server actor.
type Bootstrap struct {
	cfg   BootstrapConfig
	trie  bgp.Trie
	addr  transport.Addr
	sched sim.Scheduler
	mu    sync.Mutex
	surro map[string]surrogateLease // cluster key -> surrogate lease
	byAS  map[asgraph.ASN][]string  // AS -> cluster keys
	known map[string]asgraph.ASN    // cluster key -> AS
	// keys maps every routed prefix to its cluster key, formatted once
	// at build: a join looks its key up by the prefix the trie matched,
	// so it formats nothing and every joiner of a cluster shares one
	// string (in its JoinReply, Node.clusterKey and the lease table).
	// Like the trie, it is never written after NewBootstrap.
	keys map[bgp.Prefix]string
	// walk is MsgGetSurrogates' valley-free BFS, kept between requests so
	// its arrays are sized to the graph once; mu guards it.
	walk asgraph.VFWalk
}

// NewBootstrap builds and serves a bootstrap node on addr.
func NewBootstrap(tr transport.Transport, addr transport.Addr, cfg BootstrapConfig) (*Bootstrap, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: bootstrap needs an AS graph")
	}
	if cfg.K < 1 {
		cfg.K = DefaultParams().K
	}
	if cfg.LeaseTTL < 0 {
		return nil, fmt.Errorf("core: bootstrap LeaseTTL must be >= 0")
	}
	b := &Bootstrap{
		cfg:   cfg,
		sched: sim.OrWall(cfg.Sched),
		surro: make(map[string]surrogateLease),
		byAS:  make(map[asgraph.ASN][]string),
		known: make(map[string]asgraph.ASN),
		keys:  make(map[bgp.Prefix]string, len(cfg.Prefixes)),
	}
	for _, po := range cfg.Prefixes {
		p, err := bgp.ParsePrefix(po.Prefix)
		if err != nil {
			return nil, fmt.Errorf("core: bootstrap prefix %q: %w", po.Prefix, err)
		}
		b.trie.Insert(p, po.ASN)
		key, ok := b.keys[p]
		if !ok {
			key = p.String()
			b.keys[p] = key
		}
		b.known[key] = po.ASN
		b.byAS[po.ASN] = append(b.byAS[po.ASN], key)
	}
	bound, err := tr.Serve(addr, b.handle)
	if err != nil {
		return nil, err
	}
	b.addr = bound
	return b, nil
}

// Addr returns the bootstrap's bound address.
func (b *Bootstrap) Addr() transport.Addr { return b.addr }

// liveSurrogateLocked returns the cluster's surrogate if its lease is
// still valid. MsgJoin never hands out an expired surrogate.
func (b *Bootstrap) liveSurrogateLocked(key string) (transport.Addr, bool) {
	l, ok := b.surro[key]
	if !ok || l.addr == "" {
		return "", false
	}
	if l.expires != 0 && b.sched.Now() > l.expires {
		return "", false
	}
	return l.addr, true
}

// registerSurrogate is the compare-and-swap body of
// MsgSurrogateHeartbeat: the lease is granted — a first registration, a
// renewal, or a re-acquisition after a bootstrap restart wiped the table —
// only when the cluster has no live incumbent or the incumbent is the
// requester itself. The reply always names the cluster's current lease
// holder, so a loser learns whom to follow.
func (b *Bootstrap) registerSurrogate(req *transport.Message) (*transport.Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.known[req.ClusterKey]; !ok {
		return nil, fmt.Errorf("core: register for unknown cluster %q", req.ClusterKey)
	}
	holder, live := b.liveSurrogateLocked(req.ClusterKey)
	if !live || holder == req.SurrogateAddr {
		holder = req.SurrogateAddr
		var exp time.Duration
		if b.cfg.LeaseTTL > 0 {
			exp = b.sched.Now() + b.cfg.LeaseTTL
		}
		b.surro[req.ClusterKey] = surrogateLease{addr: holder, expires: exp}
	}
	resp := transport.AcquireMessage()
	resp.Type = transport.MsgSurrogateHeartbeatReply
	resp.SurrogateAddr, resp.LeaseTTL = holder, b.cfg.LeaseTTL
	return resp, nil
}

func (b *Bootstrap) handle(from transport.Addr, req *transport.Message) (*transport.Message, error) {
	switch req.Type {
	case transport.MsgJoin:
		ip, err := bgp.ParseAddr(req.IP)
		if err != nil {
			return nil, fmt.Errorf("core: join with bad IP %q", req.IP)
		}
		prefix, asn, ok := b.trie.Lookup(ip)
		if !ok {
			return nil, fmt.Errorf("core: no route for %s", req.IP)
		}
		key := b.keys[prefix]
		b.mu.Lock()
		sur, _ := b.liveSurrogateLocked(key)
		b.mu.Unlock()
		// The join and lease replies come from the envelope pool; the
		// joining node (reelect, claimLease) releases them.
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgJoinReply
		resp.ASN = uint32(asn)
		resp.ClusterKey = key
		resp.SurrogateAddr = sur // empty => caller becomes surrogate
		return resp, nil

	case transport.MsgSurrogateHeartbeat:
		return b.registerSurrogate(req)

	case transport.MsgGetSurrogates:
		// Return the surrogates of every cluster whose AS lies within K
		// valley-free hops of the requester's AS — the bootstrap holds
		// the graph, so surrogates need not mirror it (Section 6.1 lets
		// either side own the BFS; serving it here keeps wire messages
		// small).
		if len(req.ASNs) != 1 {
			return nil, fmt.Errorf("core: GetSurrogates wants exactly one source AS")
		}
		src := asgraph.ASN(req.ASNs[0])
		g := b.cfg.Graph
		var entries []transport.CloseEntry
		b.mu.Lock()
		b.walk.Traverse(g, src, b.cfg.K, func(ai int32, _ int) bool {
			for _, key := range b.byAS[g.ByIndex(ai)] {
				if sur, ok := b.liveSurrogateLocked(key); ok {
					entries = append(entries, transport.CloseEntry{
						ClusterKey:    key,
						SurrogateAddr: sur,
					})
				}
			}
			return true
		})
		b.mu.Unlock()
		// Close sets travel in this key order from here on (DESIGN.md §15).
		sort.Slice(entries, func(i, j int) bool { return entries[i].ClusterKey < entries[j].ClusterKey })
		return &transport.Message{Type: transport.MsgGetSurrogatesReply, CloseSet: entries}, nil

	case transport.MsgPing:
		return &transport.Message{Type: transport.MsgPong, SentAt: req.SentAt}, nil

	default:
		return nil, fmt.Errorf("core: bootstrap cannot handle message type %d", req.Type)
	}
}
