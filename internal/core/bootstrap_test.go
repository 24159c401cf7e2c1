package core

import (
	"testing"
	"time"
	"unsafe"

	"asap/internal/bgp"
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
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	cfg := actorBootstrapConfig()
	cfg.LeaseTTL = time.Minute
	bs, err := NewBootstrap(mem, "bs", cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	mem := transport.NewMem()
	defer func() { _ = mem.Close() }()
	bs, err := NewBootstrap(mem, "bs", actorBootstrapConfig())
	if err != nil {
		t.Fatal(err)
	}
	var keys [2]string
	for i, ip := range []string{"10.100.0.1", "10.100.255.254"} {
		n, err := NewNode(mem, transport.Addr("h"+ip), NodeConfig{
			IP: ip, Bootstrap: bs.Addr(), Params: testParams(),
		})
		if err != nil {
			t.Fatal(err)
		}
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
