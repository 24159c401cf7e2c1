// Command asapd runs a live ASAP node over TCP: a bootstrap server or a
// peer (end host / surrogate). Several asapd processes on one machine or
// across a LAN form a working ASAP deployment: peers join, elect
// surrogates, build close cluster sets by pinging, and place relayed
// calls.
//
// Bootstrap (uses a built-in demo topology unless -prefixes is given):
//
//	asapd -role bootstrap -listen 127.0.0.1:7000
//
// Peers:
//
//	asapd -role peer -listen 127.0.0.1:7001 -ip 10.100.0.1 -bootstrap 127.0.0.1:7000
//	asapd -role peer -listen 127.0.0.1:7002 -ip 10.200.0.1 -bootstrap 127.0.0.1:7000 \
//	      -call 127.0.0.1:7001 -say "hello over asap"
//
// The -prefixes flag accepts "CIDR=ASN" pairs separated by commas to
// describe a custom deployment, e.g.
// "10.1.0.0/16=64501,10.2.0.0/16=64502"; -links accepts
// "A-B=rel" AS links with rel one of c2p, p2p, s2s.
//
// Adding -session to a -call keeps the call open under the live session
// monitor: the active path and its backup relays are probed and MOS-
// scored every -probe-interval, relay keepalives run every
// -keepalive-interval with failover on missed ones, and a switchover
// needs -switch-consecutive probes beating the active path by
// -switch-margin MOS. SIGINT/SIGTERM (or -call-duration) closes the
// session gracefully and prints its final report.
//
// Churn tolerance: the bootstrap grants surrogate registrations as
// leases (-lease, default 30s) that surrogates claim and renew by
// heartbeat, so a crashed surrogate's cluster re-elects once its lease
// expires, and a peer restarted on its port inside its lease takes its
// surrogate role back up; with -lease 0 registrations never expire. Call setup degrades to a direct
// call (reported "degraded") instead of failing when the control plane
// is unreachable. The -chaos flag wraps the TCP transport in a seeded
// fault injector for resilience drills, e.g.
//
//	asapd -role peer ... -chaos "drop=0.05,lat=20ms" -chaos-seed 7
//
// accepts drop=P, drop@ADDR=P, lat=D, lat@ADDR=D, blackhole@ADDR,
// fail@ADDR=N and outage@ADDR=D, comma-separated; faults apply to this
// process's outbound calls only.
//
// Voice data plane: -media-listen enables real UDP voice flows next to
// the TCP control plane. Each call opens its own UDP socket, discovers
// its external address via the -stun server, and climbs the traversal
// ladder (direct -> hole-punched -> relayed via -media-relay). The
// bootstrap can host the discovery/relay services with -stun-listen and
// -relay-listen. A minimal two-process call over loopback:
//
//	asapd -role bootstrap -listen 127.0.0.1:7000 \
//	      -stun-listen 127.0.0.1:7478 -relay-listen 127.0.0.1:7479
//	asapd -role peer -listen 127.0.0.1:7001 -ip 10.100.0.1 -bootstrap 127.0.0.1:7000 \
//	      -media-listen 127.0.0.1 -stun 127.0.0.1:7478 -media-relay 127.0.0.1:7479
//	asapd -role peer -listen 127.0.0.1:7002 -ip 10.200.0.1 -bootstrap 127.0.0.1:7000 \
//	      -media-listen 127.0.0.1 -stun 127.0.0.1:7478 -media-relay 127.0.0.1:7479 \
//	      -call 127.0.0.1:7001 -say "hello over asap"
//
// With -session the voice stream keeps running for the whole call, its
// receiver-side loss/jitter feeds the session monitor's MOS, and media
// statistics appear in the status lines and the final report.
//
// Media-plane resilience: when the session monitor switches or fails
// over the relay, the media flow re-runs its traversal ladder mid-call
// — same socket, same SSRC, continuous receive stats — instead of the
// call tearing down; -media-keepalive additionally arms in-band media
// keepalives so a silent flow re-establishes on its own even without
// the monitor. Status lines report the current path rung and the
// re-establishment count. The bootstrap's relay hardens its lifecycle
// with -relay-ttl (idle flows expire), -relay-max-flows (per-source
// allocation quota; the whole table is capped at 65,536 flows either
// way) and -media-relay-key: when the same key is set on
// the bootstrap and the peers, every relay bind must carry an
// HMAC-derived flow token proof, so off-path spoofers can't capture a
// flow's relay slot. Expiry, quota and auth rejections are printed as
// relay lifecycle events.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"asap/internal/asgraph"
	"asap/internal/core"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "asapd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("asapd", flag.ContinueOnError)
	var (
		role      = fs.String("role", "peer", "bootstrap|peer")
		listen    = fs.String("listen", "127.0.0.1:0", "listen address")
		bootstrap = fs.String("bootstrap", "", "bootstrap address (peer role)")
		ip        = fs.String("ip", "", "overlay IP of this peer (peer role)")
		prefixes  = fs.String("prefixes", "", "bootstrap: comma-separated CIDR=ASN pairs (empty = demo topology)")
		links     = fs.String("links", "", "bootstrap: comma-separated A-B=rel AS links (rel: c2p|p2p|s2s)")
		call      = fs.String("call", "", "peer: place a call to this peer address after joining")
		say       = fs.String("say", "hello from asapd", "peer: voice payload for -call")
		latT      = fs.Duration("latt", 300*time.Millisecond, "latency threshold")
		wait      = fs.Duration("wait", 0, "peer: delay before -call (lets other peers join)")
		lease     = fs.Duration("lease", 30*time.Second, "bootstrap: surrogate lease TTL (0 = registrations never expire)")
		chaosSpec = fs.String("chaos", "", "inject faults into outbound calls, e.g. \"drop=0.05,lat=20ms,blackhole@HOST:PORT\"")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for -chaos fault randomness")

		// Voice data plane (real UDP).
		stunListen  = fs.String("stun-listen", "", "bootstrap: run a STUN discovery server on this UDP address")
		relayListen = fs.String("relay-listen", "", "bootstrap: run a voice relay on this UDP address")
		relayTTL    = fs.Duration("relay-ttl", time.Minute, "bootstrap: expire relay flows idle this long (0 = never)")
		relayQuota  = fs.Int("relay-max-flows", 0, "bootstrap: max concurrent relay flows per source host (0 = unlimited)")
		mediaHost   = fs.String("media-listen", "", "peer: enable the UDP voice data plane; media sockets bind on this host")
		stunAddr    = fs.String("stun", "", "peer: STUN server for media address discovery (required with -media-listen)")
		mediaRelay  = fs.String("media-relay", "", "peer: voice relay for the traversal ladder's last rung")
		mediaKey    = fs.String("media-relay-key", "", "shared secret authenticating relay binds (bootstrap: relay side; peer: proof side)")
		mediaRate   = fs.Duration("media-rate", 20*time.Millisecond, "peer: voice packet spacing for the media stream")
		mediaKaIvl  = fs.Duration("media-keepalive", 0, "peer: media-flow keepalive cadence; silence re-runs the traversal ladder (0 = off)")
		mediaKaMiss = fs.Int("media-keepalive-misses", 3, "peer: missed media keepalives before the flow counts as silent")

		// Live session monitoring (peer role, with -call).
		monitored = fs.Bool("session", false, "peer: keep the -call open under the session monitor (quality probes, keepalives, failover)")
		callFor   = fs.Duration("call-duration", 0, "peer: end the monitored call after this long (0 = until SIGINT/SIGTERM)")
		probeIvl  = fs.Duration("probe-interval", 2*time.Second, "session: quality-probe cadence")
		kaIvl     = fs.Duration("keepalive-interval", time.Second, "session: relay keepalive cadence")
		margin    = fs.Float64("switch-margin", 0.3, "session: MOS margin a backup must beat the active path by")
		consec    = fs.Int("switch-consecutive", 3, "session: consecutive margin-beating probes before switching")
		statusIvl = fs.Duration("status-interval", 10*time.Second, "session: live status print cadence (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tcp := transport.NewTCP()
	defer func() { _ = tcp.Close() }()
	var tr transport.Transport = tcp
	if *chaosSpec != "" {
		ch := transport.NewChaos(tcp, *chaosSeed)
		if err := ch.Apply(*chaosSpec); err != nil {
			return err
		}
		tr = ch
		fmt.Printf("asapd chaos enabled (seed %d): %s\n", *chaosSeed, *chaosSpec)
	}

	switch *role {
	case "bootstrap":
		cfg, err := bootstrapConfig(*prefixes, *links)
		if err != nil {
			return err
		}
		cfg.LeaseTTL = *lease
		bs, err := core.NewBootstrap(tr, transport.Addr(*listen), cfg)
		if err != nil {
			return err
		}
		fmt.Printf("asapd bootstrap listening on %s (%d prefixes, %d ASes)\n",
			bs.Addr(), len(cfg.Prefixes), cfg.Graph.NumNodes())
		if *stunListen != "" || *relayListen != "" {
			live := udp.NewLive()
			defer func() { _ = live.Close() }()
			if *stunListen != "" {
				st, err := udp.NewSTUNServer(live, transport.Addr(*stunListen))
				if err != nil {
					return err
				}
				fmt.Printf("  stun server on %s\n", st.Addr())
			}
			if *relayListen != "" {
				rl, err := udp.NewRelayServerWith(live, transport.Addr(*relayListen), sim.NewWall(), udp.RelayConfig{
					FlowTTL:           *relayTTL,
					MaxFlowsPerSource: *relayQuota,
					Secret:            []byte(*mediaKey),
				})
				if err != nil {
					return err
				}
				// Lifecycle events worth operator attention: idle-flow
				// expiry, quota rejections and failed bind authentication.
				// Bind/unbind chatter stays quiet.
				rl.SetEventLog(func(e udp.RelayEvent) {
					switch e.Kind {
					case "expire", "quota-reject", "auth-reject":
						fmt.Printf("  relay %v\n", e)
					}
				})
				fmt.Printf("  voice relay on %s (ttl %v, quota %d/source, auth %v)\n",
					rl.Addr(), *relayTTL, *relayQuota, *mediaKey != "")
			}
		}
		waitForSignal()
		return nil

	case "peer":
		if *bootstrap == "" || *ip == "" {
			return fmt.Errorf("peer role needs -bootstrap and -ip")
		}
		params := core.DefaultParams()
		params.LatT = *latT
		node, err := core.NewNode(tr, transport.Addr(*listen), core.NodeConfig{
			IP:        *ip,
			Bootstrap: transport.Addr(*bootstrap),
			Params:    params,
			Nodal:     transport.NodalInfo{BandwidthKbps: 1000, CPUScore: 1},
		})
		if err != nil {
			return err
		}
		defer node.Close()
		fmt.Printf("asapd peer %s joined: cluster %s, surrogate=%v\n",
			node.Addr(), node.ClusterKey(), node.IsSurrogate())

		if *mediaHost != "" {
			if *stunAddr == "" {
				return fmt.Errorf("-media-listen needs -stun")
			}
			live := udp.NewLive()
			defer func() { _ = live.Close() }()
			if err := node.EnableMedia(core.MediaConfig{
				Net: live, ListenHost: *mediaHost,
				STUN: transport.Addr(*stunAddr), Relay: transport.Addr(*mediaRelay),
				RelayKey:          []byte(*mediaKey),
				KeepaliveInterval: *mediaKaIvl,
				KeepaliveMisses:   *mediaKaMiss,
			}); err != nil {
				return err
			}
			fmt.Printf("  media plane enabled on %s (stun %s)\n", *mediaHost, *stunAddr)
		}

		if *call != "" {
			if *wait > 0 {
				time.Sleep(*wait)
			}
			if err := node.RefreshCloseSet(); err != nil {
				fmt.Printf("  close-set refresh: %v\n", err)
			}
			choice, err := node.SetupCall(transport.Addr(*call))
			if err != nil {
				return fmt.Errorf("call setup: %w", err)
			}
			via := "direct"
			if choice.Relay != "" {
				via = "relay " + string(choice.Relay)
			}
			if choice.Degraded {
				via += " (degraded: control plane unreachable)"
			}
			fmt.Printf("  call to %s: %s (direct %v, est %v, %d candidates)\n",
				*call, via, choice.Direct.Round(time.Millisecond),
				choice.EstRTT.Round(time.Millisecond), choice.Candidates)
			if err := node.SendVoice(choice, transport.Addr(*call), []byte(*say), 1); err != nil {
				return fmt.Errorf("voice: %w", err)
			}
			fmt.Printf("  delivered %d voice bytes\n", len(*say))
			var mc *core.MediaCall
			if *mediaHost != "" {
				mc, err = node.SetupMedia(transport.Addr(*call))
				if err != nil {
					return fmt.Errorf("media setup: %w", err)
				}
				fmt.Printf("  media path: %s (external %s, peer %s)\n",
					mc.Path(), mc.Flow().External(), mc.Flow().Peer())
			}
			if !*monitored {
				if mc != nil {
					// Short unmonitored calls still prove the media path:
					// stream one second of voice and report what arrived.
					streamVoice(mc, []byte(*say), *mediaRate, time.Second, nil)
					printMediaStats(mc)
				}
				return nil
			}
			cfg := session.DefaultConfig()
			cfg.ProbeInterval = *probeIvl
			cfg.KeepaliveInterval = *kaIvl
			cfg.SwitchMargin = *margin
			cfg.SwitchConsecutive = *consec
			return runMonitoredCall(node, transport.Addr(*call), choice, cfg, *callFor, *statusIvl, mc, []byte(*say), *mediaRate)
		}
		waitForSignal()
		return nil

	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

// bootstrapConfig parses -prefixes/-links or falls back to the built-in
// demo world: two distant stubs and a multi-homed middle cluster.
func bootstrapConfig(prefixes, links string) (core.BootstrapConfig, error) {
	if prefixes == "" {
		return core.DemoBootstrapConfig(), nil
	}
	cfg := core.BootstrapConfig{K: 4}
	for _, pair := range strings.Split(prefixes, ",") {
		cidr, asnStr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return cfg, fmt.Errorf("bad -prefixes entry %q (want CIDR=ASN)", pair)
		}
		asn, err := strconv.ParseUint(asnStr, 10, 32)
		if err != nil {
			return cfg, fmt.Errorf("bad ASN in %q: %w", pair, err)
		}
		cfg.Prefixes = append(cfg.Prefixes, core.PrefixOrigin{
			Prefix: cidr, ASN: asgraph.ASN(asn),
		})
	}
	b := asgraph.NewBuilder()
	for _, po := range cfg.Prefixes {
		b.AddNode(asgraph.Node{ASN: po.ASN, Tier: asgraph.TierStub})
	}
	if links != "" {
		for _, l := range strings.Split(links, ",") {
			ends, relStr, ok := strings.Cut(strings.TrimSpace(l), "=")
			if !ok {
				return cfg, fmt.Errorf("bad -links entry %q (want A-B=rel)", l)
			}
			aStr, bStr, ok := strings.Cut(ends, "-")
			if !ok {
				return cfg, fmt.Errorf("bad -links entry %q (want A-B=rel)", l)
			}
			a, err1 := strconv.ParseUint(aStr, 10, 32)
			c, err2 := strconv.ParseUint(bStr, 10, 32)
			if err1 != nil || err2 != nil {
				return cfg, fmt.Errorf("bad AS numbers in %q", l)
			}
			var rel asgraph.Relationship
			switch relStr {
			case "c2p":
				rel = asgraph.RelC2P
			case "p2p":
				rel = asgraph.RelP2P
			case "s2s":
				rel = asgraph.RelS2S
			default:
				return cfg, fmt.Errorf("bad relationship %q in %q", relStr, l)
			}
			b.AddEdge(asgraph.ASN(a), asgraph.ASN(c), rel)
		}
	}
	cfg.Graph = b.Build()
	return cfg, nil
}

// runMonitoredCall keeps a placed call alive under the session monitor:
// quality probes against the active path and setup-time backups, relay
// keepalives with failover, and live status lines. When a media call is
// up, voice streams on it for the whole session and its receiver-side
// loss/jitter feeds the monitor's MOS. It returns after -call-duration
// or on SIGINT/SIGTERM, closing the session and printing its final
// report either way (graceful shutdown).
func runMonitoredCall(node *core.Node, callee transport.Addr, choice *core.RelayChoice, cfg session.Config, dur, statusIvl time.Duration, mc *core.MediaCall, payload []byte, rate time.Duration) error {
	var flowID uint64
	if choice.Relay != "" {
		id, err := node.EnsureFlow(choice.Relay, callee)
		if err != nil {
			return fmt.Errorf("relay flow: %w", err)
		}
		flowID = id
	}
	mgr, err := session.NewManager(cfg, sim.NewWall(), node,
		session.WithFlowOpener(node.EnsureFlow),
		session.WithReselect(func(callee transport.Addr) ([]session.Candidate, error) {
			// Backups exhausted: re-run select-close-relay live.
			fresh, err := node.SetupCall(callee)
			if err != nil {
				return nil, err
			}
			cands := fresh.Ranked
			if len(cands) == 0 {
				// Degraded reselect: no relay is findable right now, but
				// the callee still answers — keep the call alive direct.
				cands = append(cands, session.Candidate{Relay: "", Est: fresh.Direct})
			}
			return cands, nil
		}),
		session.WithEventLog(func(e session.Event) {
			fmt.Println(" ", e)
			if e.Kind == "relay-failed" && e.Relay != "" {
				// The dead relay's cached flow must not be reused.
				node.DropFlow(e.Relay, callee)
			}
		}))
	if err != nil {
		return err
	}
	var backups []session.Candidate
	if len(choice.Ranked) > 1 {
		backups = choice.Ranked[1:]
	}
	sess, err := mgr.Open(callee, session.Candidate{Relay: choice.Relay, Est: choice.EstRTT}, backups, flowID)
	if err != nil {
		return err
	}
	if mc != nil {
		sess.AttachMedia(mc.MediaSource())
		// Media follows control: when the monitor switches or fails over
		// the session relay, re-run the traversal ladder mid-call so the
		// voice path recovers too — same flow, same SSRC, stats continue.
		sess.OnPathChange(func(transport.Addr) {
			k, err := mc.Reestablish(mc.Flow().Relay())
			if err != nil {
				fmt.Printf("  media re-establish failed: %v\n", err)
				return
			}
			fmt.Printf("  media re-established: %s (external %s)\n", k, mc.Flow().External())
		})
		stopStream := make(chan struct{})
		defer close(stopStream)
		go streamVoice(mc, payload, rate, 0, stopStream)
	}
	mgr.Start()
	fmt.Printf("  session %d open (probe %v, keepalive %v, detection window %v)\n",
		sess.ID(), cfg.ProbeInterval, cfg.KeepaliveInterval, cfg.DetectionWindow())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var endCh <-chan time.Time
	if dur > 0 {
		endCh = time.After(dur)
	}
	var statusCh <-chan time.Time
	if statusIvl > 0 {
		t := time.NewTicker(statusIvl)
		defer t.Stop()
		statusCh = t.C
	}
	for {
		select {
		case <-statusCh:
			for _, st := range mgr.Snapshot() {
				fmt.Println(" ", st)
			}
			if mc != nil {
				printMediaStats(mc)
			}
		case sig := <-sigCh:
			fmt.Printf("  %s: closing sessions\n", sig)
			printReports(mgr.Close())
			if mc != nil {
				printMediaStats(mc)
			}
			return nil
		case <-endCh:
			printReports(mgr.Close())
			if mc != nil {
				printMediaStats(mc)
			}
			return nil
		}
	}
}

// streamVoice sends voice on the media call at the given spacing until
// stop closes or, when dur > 0, roughly dur has passed. A failed send
// ends the stream too.
func streamVoice(mc *core.MediaCall, payload []byte, rate, dur time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(rate)
	defer t.Stop()
	var end <-chan time.Time
	if dur > 0 {
		end = time.After(dur)
	}
	for {
		select {
		case <-stop:
			return
		case <-end:
			return
		case <-t.C:
			if err := mc.Flow().SendVoice(payload); err != nil {
				return
			}
		}
	}
}

// printMediaStats reports the media call's send/receive accounting,
// including the path rung it currently runs on and how many times the
// flow was re-established mid-call.
func printMediaStats(mc *core.MediaCall) {
	st := mc.Flow().Stats()
	fmt.Printf("  media %s: sent %d, received %d (%d bytes), lost %d (%.1f%%), reordered %d, jitter %v, reestablished %d\n",
		mc.Path(), mc.Flow().Sent(), st.Packets, st.Bytes, st.Lost, 100*st.Loss(), st.Reordered,
		st.Jitter.Round(time.Microsecond), mc.Flow().Reestablishments())
}

func printReports(reports []session.Report) {
	for _, r := range reports {
		fmt.Println(" ", r)
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	<-ch
}
