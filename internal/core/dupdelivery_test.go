package core

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/nat"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// Control delivery is at-least-once: retryCall resends a request whose
// reply was lost, and transport.TCP silently resends once on a stale kept
// connection. Every control handler must therefore be idempotent under a
// duplicated request. This file states that invariant: the demo
// deployment lives its whole life over a transport that delivers every
// request twice, and must end in the state a deployment over the plain
// transport ends in.

// twice delivers every request to its handler twice and returns the
// second reply.
type twice struct{ transport.Transport }

func (d twice) Serve(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	return d.Transport.Serve(addr, func(from transport.Addr, req *transport.Message) (*transport.Message, error) {
		_, _ = h(from, req)
		return h(from, req)
	})
}

// typeCounter counts the requests its handlers are served, by type.
type typeCounter struct {
	transport.Transport
	handled *[256]atomic.Int64
}

func (c typeCounter) Serve(addr transport.Addr, h transport.Handler) (transport.Addr, error) {
	return c.Transport.Serve(addr, func(from transport.Addr, req *transport.Message) (*transport.Message, error) {
		c.handled[byte(req.Type)].Add(1)
		return h(from, req)
	})
}

// countingNet counts the datagrams delivered to the sockets bound on it.
type countingNet struct {
	transport.PacketNetwork
	delivered *atomic.Int64
}

func (c countingNet) ListenPacket(addr transport.Addr, h transport.PacketHandler) (transport.PacketConn, error) {
	return c.PacketNetwork.ListenPacket(addr, func(from transport.Addr, data []byte) {
		c.delivered.Add(1)
		h(from, data)
	})
}

// demoLifeOutcome is what one run of demoLife leaves behind.
type demoLifeOutcome struct {
	choice         RelayChoice
	holders        map[string]int // cluster key -> nodes that believe they serve it
	leases         map[string]transport.Addr
	relayFlows     int // c0's control-plane relay table
	calleeCalls    int // b1's media calls while the call is up
	callerReest    int64
	calleeReest    int64
	mediaPath      udp.PathKind
	stunRequests   int64 // external-address discoveries, both endpoints, whole call
	liveFlowsInUse int   // voice relay flow entries while the call is up
	liveFlowsEnd   int   // and after teardown
	mediaCallsEnd  int   // media calls either endpoint still holds after teardown
}

// demoLife runs the demo deployment end to end on the virtual clock over
// wrap(Mem), with the hosts and links of churnConfig: five joins (three
// lease claims, two nodal publishes), two lease renewals, close-set
// builds, a relayed SetupCall, EnsureFlow and a voice batch, SetupMedia
// between symmetric NATs plus one Reestablish, control and media
// keepalives, a probe tick, teardown. It calls no verb that lacks a
// caller outside tests, and it sends every request type
// (TestDeploymentSendsEveryRequestType).
func demoLife(t *testing.T, wrap func(transport.Transport) transport.Transport) (out demoLifeOutcome) {
	t.Helper()
	clk := sim.NewClock()
	const leaseTTL = 30 * time.Second
	clk.RunTask(func() {
		// The churn deployment's hosts and links on the demo graph, a1 and
		// b1 media-enabled behind symmetric NATs.
		bc := DemoBootstrapConfig()
		bc.LeaseTTL = leaseTTL
		params := testParams()
		params.LatT = 55 * time.Millisecond
		hosts := abcHosts()
		media := &MediaConfig{
			BasePort: 5000, STUN: "stun.example:3478", Relay: "relay.example:5000",
			KeepaliveInterval: 50 * time.Millisecond, KeepaliveMisses: 200,
		}
		symmetric := nat.Symmetric
		hosts[2].Media, hosts[2].NAT = media, &symmetric
		hosts[4].Media, hosts[4].NAT = media, &symmetric
		d := Deploy(t, DeployConfig{
			Clock: clk, Latency: abcLatency, Wrap: wrap,
			Bootstrap: bc, Params: params, Hosts: hosts,
		})
		defer d.Close()
		var stunRequests atomic.Int64
		defer func() { out.stunRequests = stunRequests.Load() }()
		if _, err := udp.NewSTUNServer(countingNet{d.Mem, &stunRequests}, "stun.example:3478"); err != nil {
			t.Fatal(err)
		}
		rly, err := udp.NewRelayServerWith(d.Mem, "relay.example:5000", clk, udp.RelayConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c0, a0, a1, b0, b1 := d.Nodes[0], d.Nodes[1], d.Nodes[2], d.Nodes[3], d.Nodes[4]

		clk.Sleep(2*leaseTTL/3 + time.Second) // two renewals each
		for _, s := range []*Node{c0, a0, b0} {
			if err := s.RefreshCloseSet(); err != nil {
				t.Errorf("refresh %s: %v", s.Addr(), err)
				return
			}
		}

		choice, err := a1.SetupCall(b1.Addr())
		if err != nil {
			t.Errorf("setup call: %v", err)
			return
		}
		out.choice = *choice
		flowID, err := a1.EnsureFlow(c0.Addr(), b1.Addr())
		if err != nil {
			t.Errorf("ensure flow: %v", err)
			return
		}
		if err := a1.SendVoice(choice, b1.Addr(), []byte("frames"), 1); err != nil {
			t.Errorf("voice: %v", err)
		}

		mc, cmc := d.SetupMedia(t, a1, b1)
		if _, err := mc.Reestablish(rly.Addr()); err != nil {
			t.Errorf("re-establish: %v", err)
		}
		if _, err := cmc.WaitEstablished(5 * time.Second); err != nil {
			t.Errorf("callee ladder after re-establish: %v", err)
		}
		clk.Sleep(time.Second) // media keepalives beat
		out.mediaPath = mc.Path()
		out.callerReest, out.calleeReest = mc.Flow().Reestablishments(), cmc.Flow().Reestablishments()
		out.liveFlowsInUse = rly.LiveFlows()
		b1.mu.Lock()
		out.calleeCalls = len(b1.mediaCalls)
		b1.mu.Unlock()

		if err := a1.Keepalive(c0.Addr(), flowID); err != nil {
			t.Errorf("keepalive: %v", err)
		}
		for _, r := range a1.ProbePaths([]session.PathRequest{
			{Relay: c0.Addr(), Callee: b1.Addr()}, {Callee: b1.Addr()},
		}) {
			if r.Err != nil {
				t.Errorf("probe tick: %v", r.Err)
			}
		}

		out.holders = make(map[string]int)
		out.leases = make(map[string]transport.Addr)
		for _, n := range d.Nodes {
			if n.IsSurrogate() {
				out.holders[n.ClusterKey()]++
			}
			holder, err := d.holder(n.cfg.IP)
			if err != nil {
				t.Errorf("lease probe: %v", err)
				return
			}
			out.leases[n.ClusterKey()] = holder
		}
		c0.mu.Lock()
		out.relayFlows = len(c0.flows)
		c0.mu.Unlock()

		_ = mc.Close()
		_ = cmc.Close()
		clk.Sleep(100 * time.Millisecond) // the unbinds land
		out.liveFlowsEnd = rly.LiveFlows()
		for _, n := range []*Node{a1, b1} {
			n.mu.Lock()
			out.mediaCallsEnd += len(n.mediaCalls)
			n.mu.Unlock()
		}
	})
	return out
}

// TestDuplicatedRequestsAreIdempotent is the duplicate-request invariant
// (ROADMAP 7b, in miniature): with every control request delivered twice,
// the deployment still has one lease holder per cluster, one relay flow
// per (caller, callee), one media call per token and one ladder run per
// handshake epoch, drains its voice relay on teardown, and picks the same
// relay as the run over the plain transport.
func TestDuplicatedRequestsAreIdempotent(t *testing.T) {
	plain := demoLife(t, func(tr transport.Transport) transport.Transport { return tr })
	dup := demoLife(t, func(tr transport.Transport) transport.Transport { return twice{tr} })
	if t.Failed() {
		return
	}
	if plain.choice.Relay != "c0" || plain.choice.Degraded {
		t.Fatalf("plain run: relay %q degraded=%v, want a call relayed through c0", plain.choice.Relay, plain.choice.Degraded)
	}
	if !reflect.DeepEqual(dup.choice, plain.choice) {
		t.Errorf("RelayChoice under duplicate delivery = %+v, want the plain run's %+v", dup.choice, plain.choice)
	}
	for name, o := range map[string]demoLifeOutcome{"plain": plain, "duplicated": dup} {
		if len(o.holders) != 3 {
			t.Errorf("%s: %d clusters have a surrogate, want 3", name, len(o.holders))
		}
		for key, n := range o.holders {
			if n != 1 {
				t.Errorf("%s: cluster %s has %d nodes serving it, want 1", name, key, n)
			}
		}
		if o.relayFlows != 1 {
			t.Errorf("%s: relay c0 holds %d flows for one (caller, callee), want 1", name, o.relayFlows)
		}
		if o.calleeCalls != 1 {
			t.Errorf("%s: callee holds %d media calls for one token, want 1", name, o.calleeCalls)
		}
		if o.mediaPath != udp.PathRelayed || o.liveFlowsInUse != 1 {
			t.Errorf("%s: media path %v with %d voice-relay flows, want relayed on 1", name, o.mediaPath, o.liveFlowsInUse)
		}
		if o.callerReest != 1 || o.calleeReest != 1 {
			t.Errorf("%s: re-establishments caller %d / callee %d, want 1 / 1 (one ladder run per epoch)", name, o.callerReest, o.calleeReest)
		}
		if o.stunRequests != 4 {
			t.Errorf("%s: %d external-address discoveries, want 4 (one per endpoint per epoch: a duplicate offer must not start a round)", name, o.stunRequests)
		}
		if o.liveFlowsEnd != 0 || o.mediaCallsEnd != 0 {
			t.Errorf("%s: after teardown the voice relay holds %d flows and the endpoints %d media calls, want 0 / 0", name, o.liveFlowsEnd, o.mediaCallsEnd)
		}
	}
	if !reflect.DeepEqual(dup.leases, plain.leases) {
		t.Errorf("lease holders under duplicate delivery = %v, want the plain run's %v", dup.leases, plain.leases)
	}
}

// TestDeploymentSendsEveryRequestType is the runtime twin of protosync's
// static "constructed outside tests" check: a request type that only a
// test helper constructs passes that check, but no deployment ever sends
// it. demoLife drives only verbs with callers outside tests, so every
// request type must reach a handler during its run. Replies, acks, pongs
// and errors answer requests and are not counted.
func TestDeploymentSendsEveryRequestType(t *testing.T) {
	var handled [256]atomic.Int64
	demoLife(t, func(tr transport.Transport) transport.Transport { return typeCounter{tr, &handled} })
	if t.Failed() {
		return
	}
	requests := 0
	for typ := transport.MsgType(1); !strings.HasPrefix(typ.String(), "MsgType("); typ++ {
		name := typ.String()
		if typ == transport.MsgError || typ == transport.MsgPong ||
			strings.HasSuffix(name, "Reply") || strings.HasSuffix(name, "Ack") {
			continue
		}
		requests++
		if handled[byte(typ)].Load() == 0 {
			t.Errorf("%s: no handler saw one; a request type with no deployment sender should leave the wire", name)
		}
	}
	if requests != 10 {
		t.Errorf("%d request types on the wire, want 10", requests)
	}
}
