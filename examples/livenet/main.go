// Livenet: a real ASAP deployment over TCP on localhost — one bootstrap
// and three peers in separate goroutines (the same code cmd/asapd runs as
// separate processes). Peers join, elect themselves surrogates of their
// prefix clusters, ping-build close sets, and place a relayed call.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"os"
	"time"

	"asap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livenet:", err)
		os.Exit(1)
	}
}

func run() error {
	tr := asap.NewTCPTransport()
	defer func() { _ = tr.Close() }()

	// The demo AS world: two distant stubs (AS100, AS200) and a
	// multi-homed middle AS300 — Figure 4's shortcut in miniature.
	bs, err := asap.NewBootstrap(tr, "127.0.0.1:0", asap.DemoBootstrapConfig())
	if err != nil {
		return err
	}
	fmt.Printf("bootstrap on %s\n", bs.Addr())

	params := asap.DefaultParams()
	mk := func(ip string, kbps float64) (*asap.Node, error) {
		n, err := asap.NewPeer(tr, "127.0.0.1:0", asap.NodeConfig{
			IP:        ip,
			Bootstrap: bs.Addr(),
			Params:    params,
			Nodal:     asap.NodalInfo{BandwidthKbps: kbps, CPUScore: 1},
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("peer %-21s ip %-12s cluster %-14s surrogate=%v\n",
			n.Addr(), ip, n.ClusterKey(), n.IsSurrogate())
		return n, nil
	}
	relay, err := mk("10.30.0.1", 10000)
	if err != nil {
		return err
	}
	alice, err := mk("10.100.0.7", 1500)
	if err != nil {
		return err
	}
	bob, err := mk("10.200.0.9", 1500)
	if err != nil {
		return err
	}

	// Everyone refreshes close sets now that all surrogates exist.
	for _, n := range []*asap.Node{relay, alice, bob} {
		if err := n.RefreshCloseSet(); err != nil {
			return err
		}
	}

	// On loopback every path is sub-millisecond, so the call goes direct;
	// the point is the full live protocol executing end to end.
	choice, err := alice.SetupCall(bob.Addr())
	if err != nil {
		return err
	}
	via := "direct"
	if choice.Relay != "" {
		via = "relay " + string(choice.Relay)
	}
	fmt.Printf("\nalice -> bob: %s (direct %v, est %v, candidates %d)\n",
		via, choice.Direct.Round(time.Microsecond),
		choice.EstRTT.Round(time.Microsecond), choice.Candidates)

	payload := []byte("RTP batch: 20 G.729A frames")
	for seq := uint32(1); seq <= 5; seq++ {
		if err := alice.SendVoice(choice, bob.Addr(), payload, seq); err != nil {
			return err
		}
	}
	fmt.Printf("bob received %d voice bytes over TCP\n", bob.ReceivedBytes())

	// Force a relayed voice path to exercise forwarding live: pretend the
	// selection chose the relay peer.
	forced := &asap.RelayChoice{Relay: relay.Addr(), EstRTT: choice.EstRTT}
	if err := alice.SendVoice(forced, bob.Addr(), payload, 6); err != nil {
		return err
	}
	fmt.Printf("after forced relay hop, bob has %d bytes (relay forwarded, consumed none)\n",
		bob.ReceivedBytes())
	return nil
}
