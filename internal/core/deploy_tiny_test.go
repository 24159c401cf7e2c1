package core_test

import (
	"fmt"
	"testing"
	"time"

	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/nat"
	"asap/internal/overlay"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// TestTinyDeploymentDeterministic deploys all of the tiny world: two
// hosts of every cluster that has two, joined cluster by cluster, each
// with a media plane behind a NAT box (cycling through nat.Types), one
// STUN server and one voice relay, on links of Model.HostRTT/2. It places
// one call that is latent by ground truth — SetupCall, SetupMedia, the
// callee's ladder — and sends voice on the rung it lands on. The outcome
// is pinned. A second deployment in the same run, its control carried
// through the wire codec, must reproduce it in a pinned number of codec
// round trips.
func TestTinyDeploymentDeterministic(t *testing.T) {
	w := buildWorld(t, eval.Tiny)
	const (
		pinned      = "450 nodes; call h408 -> h968: direct 304ms, relay h139 est 193ms of 16 candidates; media relayed/relayed, heard 20/20"
		pinnedTrips = 65525
	)
	first := tinyCall(t, w, nil)
	if t.Failed() {
		return
	}
	if first != pinned {
		t.Errorf("outcome:\n got    %s\n pinned %s", first, pinned)
	}
	var codec core.Codec
	if again := tinyCall(t, w, codec.Wrap); again != first {
		t.Errorf("a second deployment of the same world, through the codec:\n got  %s\n first %s", again, first)
	}
	if got := codec.RoundTrips.Load(); got != pinnedTrips {
		t.Errorf("%d codec round trips, pinned %d", got, pinnedTrips)
	}
}

// The deployment's STUN server and voice relay, whose addresses belong to
// no host of the world, the one-way leg to them and to the bootstrap, and
// the voice packets the call sends.
const (
	tinySTUN     transport.Addr = "stun.tiny:3478"
	tinyRelay    transport.Addr = "relay.tiny:5000"
	tinyInfraLeg                = 10 * time.Millisecond
	tinyVoice                   = 20
)

// tinyCall deploys w, its transport decorated by wrap when set, and
// places its call, returning the outcome line.
func tinyCall(t *testing.T, w *eval.World, wrap func(transport.Transport) transport.Transport) string {
	params := core.DefaultParams()
	pop := w.Pop
	hostOf := map[transport.Addr]cluster.HostID{}
	var hosts []core.DeployHost
	var prefixes []core.PrefixOrigin
	for _, c := range pop.Clusters() {
		if len(c.Hosts) < 2 {
			continue
		}
		prefixes = append(prefixes, core.PrefixOrigin{Prefix: c.Prefix.String(), ASN: c.AS})
		for _, h := range c.Hosts[:2] {
			addr := transport.Addr(fmt.Sprintf("h%d", h))
			hostOf[addr] = h
			hosts = append(hosts, core.DeployHost{
				Addr: addr, IP: pop.Host(h).Addr.String(), NAT: &nat.Types[len(hosts)%len(nat.Types)],
				Media: &core.MediaConfig{BasePort: 5000, STUN: tinySTUN, Relay: tinyRelay},
			})
		}
	}
	latency := func(from, to transport.Addr) time.Duration {
		a, okA := hostOf[from]
		b, okB := hostOf[to]
		if !okA || !okB {
			return tinyInfraLeg
		}
		rtt, _ := w.Model.HostRTT(a, b)
		return rtt / 2
	}
	caller, callee := tinyLatentPair(w, hosts, hostOf, params.LatT)
	if caller < 0 {
		t.Fatal("no deployed pair is latent and rescuable by a deployed surrogate")
	}

	var line string
	clk := sim.NewClock()
	clk.RunTask(func() {
		d := core.Deploy(t, core.DeployConfig{
			Clock: clk, Latency: latency, Wrap: wrap, Params: params, Hosts: hosts, Refresh: true,
			Bootstrap: core.BootstrapConfig{Graph: w.Graph, Prefixes: prefixes, K: params.K},
		})
		defer d.Close()
		if _, err := udp.NewSTUNServer(d.Mem, tinySTUN); err != nil {
			t.Fatal(err)
		}
		if _, err := udp.NewRelayServerWith(d.Mem, tinyRelay, clk, udp.RelayConfig{}); err != nil {
			t.Fatal(err)
		}
		a, b := d.Nodes[caller], d.Nodes[callee]
		choice, err := a.SetupCall(b.Addr())
		if err != nil {
			t.Fatalf("setup call: %v", err)
		}
		if choice.Relay != "" {
			if choice.EstRTT >= params.LatT {
				t.Errorf("relay %s estimated at %v, not under LatT %v", choice.Relay, choice.EstRTT, params.LatT)
			}
			surrogate := false
			for _, n := range d.Nodes {
				surrogate = surrogate || n.Addr() == choice.Relay && n.IsSurrogate()
			}
			if !surrogate {
				t.Errorf("relay %s is not a deployed surrogate", choice.Relay)
			}
		}
		mc, cmc := d.SetupMedia(t, a, b)
		heard := 0
		cmc.Flow().SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })
		for range tinyVoice {
			if err := mc.Flow().SendVoice(make([]byte, 20)); err != nil {
				t.Fatalf("send voice: %v", err)
			}
			clk.Sleep(20 * time.Millisecond)
		}
		clk.Sleep(time.Second)
		if mc.Path() == udp.PathNone || heard != tinyVoice {
			t.Errorf("media on %v, %d of %d voice packets heard", mc.Path(), heard, tinyVoice)
		}
		line = fmt.Sprintf("%d nodes; call %s -> %s: direct %v, relay %s est %v of %d candidates; media %v/%v, heard %d/%d",
			len(d.Nodes), a.Addr(), b.Addr(), choice.Direct.Round(time.Millisecond), choice.Relay,
			choice.EstRTT.Round(time.Millisecond), choice.Candidates, mc.Path(), cmc.Path(), heard, tinyVoice)
	})
	return line
}

// tinyLatentPair picks the call: the first members (second joiners) of
// two clusters, in join order, whose direct RTT is at least latT while
// some deployed surrogate (first joiner) relays them under latT, all by
// ground truth. It returns their indexes in hosts, or -1, -1.
func tinyLatentPair(w *eval.World, hosts []core.DeployHost, hostOf map[transport.Addr]cluster.HostID, latT time.Duration) (int, int) {
	var relays []cluster.HostID
	for i := 0; i < len(hosts); i += 2 {
		relays = append(relays, hostOf[hosts[i].Addr])
	}
	paths := make([]overlay.Path, len(relays))
	for i := 1; i < len(hosts); i += 2 {
		for j := i + 2; j < len(hosts); j += 2 {
			a, b := hostOf[hosts[i].Addr], hostOf[hosts[j].Addr]
			if rtt, ok := w.Model.HostRTT(a, b); !ok || rtt < latT {
				continue
			}
			w.Engine.OneHopBatch(a, relays, b, paths)
			for k, p := range paths {
				if k != i/2 && k != j/2 && p.Kind != 0 && p.RTT < latT {
					return i, j
				}
			}
		}
	}
	return -1, -1
}
