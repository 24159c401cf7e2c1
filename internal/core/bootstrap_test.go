package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/sim"
	"asap/internal/transport"
)

// TestJoinAllocs holds the bootstrap's half of the join round trip at
// zero allocations once warm: a join parses the IP in one pass, looks
// its cluster key up by the matched prefix and answers from the
// envelope pool, and a lease heartbeat renews in place. Formatting the
// key per join, or a fresh reply envelope, shows up here.
func TestJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations and drops pooled envelopes")
	}
	bs := Deploy(t, DeployConfig{Bootstrap: BootstrapConfig{LeaseTTL: time.Minute}}).Bootstrap
	reqs := []*transport.Message{
		{Type: transport.MsgJoin, From: "h1", IP: "10.100.7.9"},
		{Type: transport.MsgSurrogateHeartbeat, From: "h1", ClusterKey: "10.100.0.0/16", SurrogateAddr: "h1"},
		{Type: transport.MsgJoin, From: "h2", IP: "10.100.200.1"}, // now finds h1's live lease
	}
	for _, req := range reqs {
		n := testing.AllocsPerRun(200, func() {
			resp, err := bs.handle(req.From, req)
			if err != nil {
				panic(err)
			}
			transport.ReleaseMessage(resp)
		})
		if n != 0 {
			t.Errorf("%v from %s: %.1f allocations, want 0", req.Type, req.From, n)
		}
	}
}

// TestJoinKeyShared checks that every joiner of a cluster holds the one
// key string the bootstrap formatted at build, so a million joiners
// retain a few thousand keys rather than a million copies, and that the
// key is the matched prefix in CIDR notation.
func TestJoinKeyShared(t *testing.T) {
	var keys [2]string
	for i, n := range Deploy(t, DeployConfig{Hosts: []DeployHost{
		{Addr: "h10.100.0.1", IP: "10.100.0.1"}, {Addr: "h10.100.255.254", IP: "10.100.255.254"},
	}}).Nodes {
		keys[i] = n.ClusterKey()
	}
	p, err := bgp.ParsePrefix("10.100.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] != p.String() || keys[1] != p.String() {
		t.Fatalf("cluster keys %q, %q; want %q", keys[0], keys[1], p.String())
	}
	if unsafe.StringData(keys[0]) != unsafe.StringData(keys[1]) {
		t.Error("two joiners of one cluster hold private copies of its key")
	}
}

// TestBootstrapConcurrentGetSurrogates races MsgGetSurrogates for
// different source ASes through one bootstrap, whose handlers run on the
// callers' goroutines over Mem: the requests share the bootstrap's kept
// valley-free walk, so every reply must still equal the one a lone
// request for its source got.
func TestBootstrapConcurrentGetSurrogates(t *testing.T) {
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(200), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	asns := g.ASNs()
	cfg := BootstrapConfig{Graph: g, K: 3}
	for i, asn := range asns {
		cfg.Prefixes = append(cfg.Prefixes, PrefixOrigin{Prefix: fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff), ASN: asn})
	}
	d := Deploy(t, DeployConfig{Bootstrap: cfg})
	mem, bs := d.Mem, d.Bootstrap
	for i, po := range cfg.Prefixes {
		if _, err := mem.Call(bs.Addr(), &transport.Message{
			Type: transport.MsgSurrogateHeartbeat, ClusterKey: po.Prefix, SurrogateAddr: transport.Addr(fmt.Sprintf("s%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(src asgraph.ASN) ([]transport.CloseEntry, error) {
		resp, err := mem.Call(bs.Addr(), &transport.Message{
			Type: transport.MsgGetSurrogates, From: "probe", ASNs: []uint32{uint32(src)},
		})
		if err != nil {
			return nil, err
		}
		return resp.CloseSet, nil
	}
	lone := make([][]transport.CloseEntry, len(asns))
	sizes := map[int]bool{}
	for i, asn := range asns {
		if lone[i], err = get(asn); err != nil {
			t.Fatal(err)
		}
		sizes[len(lone[i])] = true
	}
	if len(sizes) < 2 {
		t.Fatal("every source gets a reply of one size: the test proves nothing")
	}

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*53 + r*7) % len(asns)
				got, err := get(asns[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, lone[i]) {
					t.Errorf("worker %d: AS %d's reply has %d entries, a lone request's %d", w, asns[i], len(got), len(lone[i]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
