package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/nat"
	"asap/internal/sim"
	"asap/internal/transport"
)

// The test deployment. Every actor test that needs a bootstrap and nodes
// builds them with Deploy: one in-memory transport for control and media,
// a bootstrap at "bs", the hosts joined in order. A host has one address:
// its control address is its name, and every media socket it owns, its
// NAT box's external side included, is that name and a port. Deploy is
// exported so that package core_test files can call it; they may import
// eval, which this package's own test files cannot without an import
// cycle.

// DeployConfig describes one deployment.
type DeployConfig struct {
	// Clock runs the deployment in virtual time, and Deploy must then be
	// called inside one of its tasks. Nil runs it on the wall clock.
	Clock *sim.Clock
	// Latency is the one-way delay between two hosts, for control
	// requests and media datagrams alike: it sees host names, ports
	// stripped. Nil means none.
	Latency func(from, to transport.Addr) time.Duration
	// Wrap, if set, decorates the Mem under the bootstrap and every node:
	// a Chaos, or a counting or duplicating wrapper. Media sockets bind on
	// the Mem itself.
	Wrap func(transport.Transport) transport.Transport
	// Bootstrap configures the bootstrap. A nil Graph takes
	// actorBootstrapConfig's graph, prefixes and K; Sched is Clock.
	Bootstrap BootstrapConfig
	// Params and Retry are every node's. Zero Params means testParams.
	Params Params
	Retry  RetryPolicy
	// Hosts join in this order; the i-th joiner's seed is i.
	Hosts []DeployHost
	// Refresh has every surrogate rebuild its close set, in join order,
	// once all hosts have joined.
	Refresh bool
}

// DeployHost is one host of a deployment.
type DeployHost struct {
	Addr transport.Addr
	IP   string
	// Media, if set, is the node's voice plane, enabled when it joins,
	// its sockets at Addr and a port. A nil Media.Net binds them on the
	// Mem: behind a NAT box of type *NAT, whose external side is Addr and
	// ports from 40000, when NAT is set, directly otherwise.
	Media *MediaConfig
	NAT   *nat.Type
}

// Deployment is what Deploy built. Nodes holds every joiner in join
// order, late ones (Join) included.
type Deployment struct {
	Clock     *sim.Clock
	Mem       *transport.Mem
	Bootstrap *Bootstrap
	Nodes     []*Node

	cfg DeployConfig
	tr  transport.Transport // the Mem as Wrap decorated it
}

// Deploy builds the deployment cfg describes and fails t if any of it
// cannot be built. The Mem and the NAT boxes close when the test ends;
// the nodes close on Close.
func Deploy(t testing.TB, cfg DeployConfig) *Deployment {
	t.Helper()
	d := &Deployment{Clock: cfg.Clock, Mem: transport.NewMem(), cfg: cfg}
	t.Cleanup(func() { _ = d.Mem.Close() })
	if lat := cfg.Latency; lat != nil {
		d.Mem.Latency = func(from, to transport.Addr) time.Duration {
			if i := strings.LastIndexByte(string(from), ':'); i >= 0 {
				from = from[:i]
			}
			if i := strings.LastIndexByte(string(to), ':'); i >= 0 {
				to = to[:i]
			}
			return lat(from, to)
		}
	}
	if cfg.Clock != nil {
		d.Mem.Sched = cfg.Clock
		d.cfg.Bootstrap.Sched = cfg.Clock
	}
	d.tr = d.Mem
	if cfg.Wrap != nil {
		d.tr = cfg.Wrap(d.Mem)
	}
	if d.cfg.Bootstrap.Graph == nil {
		a := actorBootstrapConfig()
		d.cfg.Bootstrap.Graph, d.cfg.Bootstrap.Prefixes, d.cfg.Bootstrap.K = a.Graph, a.Prefixes, a.K
	}
	if cfg.Params == (Params{}) {
		d.cfg.Params = testParams()
	}
	var err error
	if d.Bootstrap, err = NewBootstrap(d.tr, "bs", d.cfg.Bootstrap); err != nil {
		t.Fatal(err)
	}
	for _, h := range cfg.Hosts {
		d.Join(t, h)
	}
	if cfg.Refresh {
		for _, n := range d.Nodes {
			if !n.IsSurrogate() {
				continue
			}
			if err := n.RefreshCloseSet(); err != nil {
				t.Fatalf("refresh %s: %v", n.Addr(), err)
			}
		}
	}
	return d
}

// Join joins one more host, as Deploy joins each of cfg.Hosts.
func (d *Deployment) Join(t testing.TB, h DeployHost) *Node {
	t.Helper()
	nc := NodeConfig{
		IP: h.IP, Bootstrap: d.Bootstrap.Addr(), Params: d.cfg.Params,
		Retry: d.cfg.Retry, Seed: int64(len(d.Nodes) + 1),
	}
	if d.Clock != nil {
		nc.Sched = d.Clock
	}
	n, err := NewNode(d.tr, h.Addr, nc)
	if err != nil {
		t.Fatalf("node %s: %v", h.Addr, err)
	}
	d.Nodes = append(d.Nodes, n)
	if h.Media != nil {
		mc := *h.Media
		mc.ListenHost = string(h.Addr)
		if mc.Net == nil {
			mc.Net = d.Mem
			if h.NAT != nil {
				box := nat.New(*h.NAT, d.Mem, string(h.Addr), 40000)
				t.Cleanup(func() { _ = box.Close() })
				mc.Net = box
			}
		}
		if err := n.EnableMedia(mc); err != nil {
			t.Fatalf("media of %s: %v", h.Addr, err)
		}
	}
	return n
}

// Close closes every node. Under a Clock it must run inside a task.
func (d *Deployment) Close() {
	for _, n := range d.Nodes {
		n.Close()
	}
}

// Kill crashes n: its loops stop and its address goes dark.
func (d *Deployment) Kill(n *Node) {
	n.Close()
	d.Mem.Unbind(n.Addr())
}

// holder asks the bootstrap, over the undecorated Mem, which surrogate
// serves the cluster of ip now.
func (d *Deployment) holder(ip string) (transport.Addr, error) {
	resp, err := d.Mem.Call(d.Bootstrap.Addr(), &transport.Message{Type: transport.MsgJoin, From: "probe", IP: ip})
	if err != nil {
		return "", err
	}
	return resp.SurrogateAddr, nil
}

// deployTask runs Deploy as a task of cfg.Clock, for a test that builds
// its deployment before its own tasks start.
func deployTask(t *testing.T, cfg DeployConfig) *Deployment {
	t.Helper()
	var d *Deployment
	cfg.Clock.RunTask(func() { d = Deploy(t, cfg) })
	if t.Failed() {
		t.FailNow()
	}
	return d
}

// SetupMedia sets up the two-sided media call from caller to callee: the
// caller's SetupMedia, then the callee's half of the call, waited on until
// its ladder lands. Any error fails t. Under a Clock it must run inside a
// task.
func (d *Deployment) SetupMedia(t testing.TB, caller, callee *Node) (mc, cmc *MediaCall) {
	t.Helper()
	mc, err := caller.SetupMedia(callee.Addr())
	if err != nil {
		t.Fatalf("setup media %s -> %s: %v", caller.Addr(), callee.Addr(), err)
	}
	if cmc = callee.MediaCallWith(caller.Addr()); cmc == nil {
		t.Fatalf("callee %s holds no media call", callee.Addr())
	}
	if _, err := cmc.WaitEstablished(10 * time.Second); err != nil {
		t.Fatalf("callee ladder: %v", err)
	}
	return mc, cmc
}

// Codec is a Wrap that carries every control request and reply through
// the wire codec, as a socket transport does: each is encoded with
// AppendMessage and decoded into a fresh envelope with DecodeMessage.
// RoundTrips counts the calls that crossed it both ways.
type Codec struct {
	transport.Transport
	RoundTrips atomic.Int64
}

// Wrap decorates tr; pass it as DeployConfig.Wrap.
func (c *Codec) Wrap(tr transport.Transport) transport.Transport {
	c.Transport = tr
	return c
}

func (c *Codec) Call(to transport.Addr, req *transport.Message) (*transport.Message, error) {
	wire := transport.AcquireMessage()
	defer transport.ReleaseMessage(wire)
	if err := transport.DecodeMessage(transport.AppendMessage(nil, req), wire); err != nil {
		return nil, err
	}
	resp, err := c.Transport.Call(to, wire)
	if err != nil {
		return nil, err
	}
	back := transport.AcquireMessage()
	err = transport.DecodeMessage(transport.AppendMessage(nil, resp), back)
	transport.ReleaseMessage(resp)
	if err != nil {
		transport.ReleaseMessage(back)
		return nil, err
	}
	c.RoundTrips.Add(1)
	return back, nil
}
