package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/nat"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/session"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// call_sim: one placed call, end to end, on the virtual clock.
//
// Deployment (set-up): eval.BuildWorld(small); a bootstrap holding the
// world's AS graph and the deployed clusters' prefixes; callClusters
// clusters x 2 core.NewNode each (the first joiner is the surrogate, the
// second a member; IPs are the world's host addresses; control-plane and
// packet-plane Mem latency is Model.HostRTT/2), then RefreshCloseSet on
// every surrogate. The clusters are the endpoints' clusters — the ones
// that appear most often at the ends of the world's latent sessions —
// plus the clusters that rescue most latent endpoint pairs under ground
// truth (overlay.Engine one-hop RTT under LatT): a pure function of the
// world, so every seed measures the same deployment and the seed decides
// which calls are placed, in which order. Endpoints sit behind nat.Boxes cycling nat.Types; one STUN server
// and one HMAC-keyed udp.RelayServer serve the media plane.
//
// Operation: Node.SetupCall -> Node.SetupMedia -> a talk-spurt of 20-byte
// packets through Flow.SendVoice, monitored by a session.Manager driven
// by the caller node -> teardown. Every repetition is half latent pairs
// (direct RTT >= LatT), half not; the non-latent half returns from
// SetupCall after the direct ping and bypasses relay selection.

const (
	callClusters       = 256
	callEndpointGroups = 64 // endpoint clusters among them
	callsPerRep        = 600
	callTalkPackets    = 8 // a 160 ms talk-spurt at 50 pps: set-up must stay at least half of a call's wall time
	callClustersSmoke  = 24
	callEndpointsSmoke = 8
	callsPerRepSmoke   = 8
	callBootstrapLeg   = 15 * time.Millisecond // node <-> bootstrap, one way
	callMediaInfraLeg  = 10 * time.Millisecond // socket <-> STUN/relay, one way
)

type simNode struct {
	n    *core.Node
	host cluster.HostID
	addr transport.Addr
	box  *nat.Box
}

type callOutcome struct {
	latent    bool
	failed    bool
	degraded  bool
	rescued   bool
	setupMS   float64
	msgs      float64
	mos       float64
	events    float64
	setupRPCs float64
	switches  int
}

type callSim struct {
	e      *env
	w      *eval.World
	params core.Params

	clk    *sim.Clock
	ctrl   *transport.Mem
	ct     *countingTransport
	pub    *transport.Mem
	cnet   *countingPacketNet
	stun   *udp.STUNServer
	relay  *udp.RelayServer
	nodes  []*simNode // every deployed node
	ends   []*simNode // the media-enabled endpoints
	byAddr map[transport.Addr]*simNode

	latentPairs, otherPairs [][2]int // ordered indices into ends

	dig        *digest
	outcomes   []callOutcome // pinned repetitions
	badChoice  int64         // relayed choices with EstRTT neither < LatT nor < direct
	unheard    int64         // talk-spurt packets not heard
	relayLeft  int64         // relay flows live after a repetition's teardown
	noPath     int64         // calls with neither a relay, a direct path nor Degraded
	probeTicks int64
}

func newCallSim(e *env) *callSim { return &callSim{e: e, params: core.DefaultParams()} }

func (w *callSim) repSeconds() float64 { return 0.12 }

func (w *callSim) sizes() (clusters, endpointClusters, calls int) {
	if w.e.smoke {
		return callClustersSmoke, callEndpointsSmoke, callsPerRepSmoke
	}
	return callClusters, callEndpointGroups, callsPerRep
}

// pickClusters chooses the endpoint clusters and the relay clusters.
func (w *callSim) pickClusters() (endpoints, all []cluster.ClusterID, err error) {
	nAll, nEnd, _ := w.sizes()
	pop := w.w.Pop
	latent, _ := drawSessions(w.w, 2*nEnd, 0, w.params.LatT, 2000*nEnd)
	if len(latent) == 0 {
		return nil, nil, fmt.Errorf("no latent session in the world")
	}
	// Endpoint clusters: those seen most often at the ends of latent
	// sessions (two hosts needed: a surrogate and a member).
	freq := map[cluster.ClusterID]int{}
	for _, s := range latent {
		for _, h := range []cluster.HostID{s.A, s.B} {
			if c := pop.Host(h).Cluster; len(pop.Cluster(c).Hosts) >= 2 {
				freq[c]++
			}
		}
	}
	endpoints = topClusters(freq, nEnd)
	if len(endpoints) < 4 {
		return nil, nil, fmt.Errorf("only %d endpoint clusters", len(endpoints))
	}
	// Relay clusters: for every latent endpoint-cluster pair, every other
	// two-host cluster whose first host relays it under LatT scores.
	var cands []cluster.ClusterID
	var relays []cluster.HostID
	for _, c := range pop.Clusters() {
		if len(c.Hosts) >= 2 {
			cands = append(cands, c.ID)
			relays = append(relays, c.Hosts[0])
		}
	}
	score := map[cluster.ClusterID]int{}
	paths := make([]overlay.Path, len(relays))
	scored := 0
	for i, ca := range endpoints {
		for _, cb := range endpoints[i+1:] {
			a, b := pop.Cluster(ca).Hosts[0], pop.Cluster(cb).Hosts[0]
			if rtt, ok := w.w.Model.HostRTT(a, b); !ok || rtt < w.params.LatT {
				continue
			}
			// The first latent pairs in rank order decide: scoring every
			// pair costs set-up time and picks the same clusters.
			if scored++; scored > 2*nEnd {
				break
			}
			w.w.Engine.OneHopBatch(a, relays, b, paths)
			for k, p := range paths {
				if p.Kind != 0 && p.RTT < w.params.LatT && cands[k] != ca && cands[k] != cb {
					score[cands[k]]++
				}
			}
		}
	}
	for _, c := range endpoints {
		delete(score, c)
	}
	all = append(append([]cluster.ClusterID(nil), endpoints...), topClusters(score, nAll-len(endpoints))...)
	return endpoints, all, nil
}

// topClusters returns the n highest-scoring clusters, ties to the lower ID.
func topClusters(score map[cluster.ClusterID]int, n int) []cluster.ClusterID {
	ids := make([]cluster.ClusterID, 0, len(score))
	for c := range score {
		ids = append(ids, c)
	}
	sort.Slice(ids, func(i, j int) bool {
		if score[ids[i]] != score[ids[j]] {
			return score[ids[i]] > score[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

func (w *callSim) setup() error {
	tr := w.e.tr
	op := tr.beginOp("bench", "setup")
	defer tr.end(op)

	id := tr.begin("eval", "build_world")
	world, err := eval.BuildWorld(worldProfile(w.e.smoke))
	tr.end(id)
	if err != nil {
		return err
	}
	w.w = world
	pop, model := world.Pop, world.Model
	rng := sim.NewRNG(sim.SubSeed(w.e.seed, sim.StringLabel(wCallSim)))
	id = tr.begin("bench", "pick_clusters")
	endpoints, all, err := w.pickClusters()
	tr.end(id)
	if err != nil {
		return err
	}

	w.dig = newDigest()
	w.outcomes = nil
	w.badChoice, w.unheard, w.relayLeft, w.noPath, w.probeTicks = 0, 0, 0, 0, 0
	w.nodes, w.ends = nil, nil
	w.byAddr = map[transport.Addr]*simNode{}

	// Control plane.
	w.clk = sim.NewClock()
	w.ctrl = transport.NewMem()
	w.ctrl.Sched = w.clk
	const bsAddr = transport.Addr("bootstrap")
	hostOf := map[transport.Addr]cluster.HostID{}
	w.ctrl.Latency = func(from, to transport.Addr) time.Duration {
		a, okA := hostOf[from]
		b, okB := hostOf[to]
		if !okA || !okB {
			return callBootstrapLeg
		}
		rtt, _ := model.HostRTT(a, b)
		return rtt / 2
	}
	w.ct = newCountingTransport(w.ctrl, tr, bsAddr)

	// Media plane.
	w.pub = transport.NewMem()
	w.pub.Sched = w.clk
	hostOfIP := map[string]cluster.HostID{}
	w.pub.Latency = func(from, to transport.Addr) time.Duration {
		a, okA := hostOfIP[ipOf(from)]
		b, okB := hostOfIP[ipOf(to)]
		if !okA || !okB {
			return callMediaInfraLeg
		}
		rtt, _ := model.HostRTT(a, b)
		return rtt / 2
	}
	w.cnet = newCountingPacketNet(w.pub)
	if w.stun, err = udp.NewSTUNServer(w.pub, "stun.bench:3478"); err != nil {
		return err
	}
	key := []byte(fmt.Sprintf("bench-relay-key-%d", w.e.seed))
	w.relay, err = udp.NewRelayServerWith(w.pub, "relay.bench:5000", w.clk,
		udp.RelayConfig{Secret: key, FlowTTL: 30 * time.Second})
	if err != nil {
		return err
	}

	var prefixes []core.PrefixOrigin
	for _, c := range all {
		cl := pop.Cluster(c)
		prefixes = append(prefixes, core.PrefixOrigin{Prefix: cl.Prefix.String(), ASN: cl.AS})
	}
	isEndpoint := map[cluster.ClusterID]bool{}
	for _, c := range endpoints {
		isEndpoint[c] = true
	}

	var setupErr error
	w.clk.RunTask(func() {
		_, err := core.NewBootstrap(w.ct, bsAddr, core.BootstrapConfig{
			Graph: world.Graph, Prefixes: prefixes, K: w.params.K, Sched: w.clk,
		})
		if err != nil {
			setupErr = err
			return
		}
		// Joins: the first host of a cluster becomes its surrogate, the
		// second a member.
		for _, c := range all {
			for k := 0; k < 2; k++ {
				h := pop.Cluster(c).Hosts[k]
				addr := transport.Addr(fmt.Sprintf("h%d", h))
				hostOf[addr] = h
				id := tr.begin("core", "join")
				n, err := core.NewNode(w.ct, addr, core.NodeConfig{
					IP: pop.Host(h).Addr.String(), Bootstrap: bsAddr, Params: w.params,
					Sched: w.clk, Seed: w.e.seed,
				})
				tr.end(id)
				if err != nil {
					setupErr = fmt.Errorf("join %s: %w", addr, err)
					return
				}
				sn := &simNode{n: n, host: h, addr: addr}
				w.nodes = append(w.nodes, sn)
				w.byAddr[addr] = sn
				if isEndpoint[c] {
					w.ends = append(w.ends, sn)
				}
			}
		}
		// Every surrogate now sees the whole deployment.
		for _, sn := range w.nodes {
			if !sn.n.IsSurrogate() {
				continue
			}
			id := tr.begin("core", "refresh_closeset")
			err := sn.n.RefreshCloseSet()
			tr.end(id)
			if err != nil {
				setupErr = fmt.Errorf("refresh close set of %s: %w", sn.addr, err)
				return
			}
		}
		// Media: every endpoint behind its own NAT box.
		for k, sn := range w.ends {
			ip := pop.Host(sn.host).Addr.String()
			hostOfIP[ip] = sn.host
			sn.box = nat.New(nat.Types[k%len(nat.Types)], w.cnet, ip, 40000)
			if err := sn.n.EnableMedia(core.MediaConfig{
				Net: sn.box, ListenHost: "192.168.0.2", BasePort: 5000,
				STUN: w.stun.Addr(), Relay: w.relay.Addr(), RelayKey: key,
			}); err != nil {
				setupErr = err
				return
			}
		}
	})
	if setupErr != nil {
		return setupErr
	}

	// The call population: every ordered pair of endpoints in different
	// clusters, split by ground-truth direct RTT, in seeded order.
	w.latentPairs, w.otherPairs = nil, nil
	for i, a := range w.ends {
		for j, b := range w.ends {
			if i == j || pop.Host(a.host).Cluster == pop.Host(b.host).Cluster {
				continue
			}
			rtt, ok := model.HostRTT(a.host, b.host)
			if !ok {
				continue
			}
			if rtt >= w.params.LatT {
				w.latentPairs = append(w.latentPairs, [2]int{i, j})
			} else {
				w.otherPairs = append(w.otherPairs, [2]int{i, j})
			}
		}
	}
	rng.Shuffle(len(w.latentPairs), func(i, j int) { w.latentPairs[i], w.latentPairs[j] = w.latentPairs[j], w.latentPairs[i] })
	rng.Shuffle(len(w.otherPairs), func(i, j int) { w.otherPairs[i], w.otherPairs[j] = w.otherPairs[j], w.otherPairs[i] })
	_, _, calls := w.sizes()
	if len(w.latentPairs) < calls/2 || len(w.otherPairs) < calls/2 {
		return fmt.Errorf("call population too small: %d latent, %d other pairs", len(w.latentPairs), len(w.otherPairs))
	}
	return nil
}

func ipOf(a transport.Addr) string {
	if i := strings.LastIndexByte(string(a), ':'); i >= 0 {
		return string(a[:i])
	}
	return string(a)
}

// probeSpanDriver is the session.Manager's driver: the caller node, with
// a span around every ProbePaths tick.
type probeSpanDriver struct {
	*core.Node
	tr    *tracer
	ticks *int64
}

func (d probeSpanDriver) ProbePaths(reqs []session.PathRequest) []session.PathResult {
	*d.ticks++
	id := d.tr.beginLeaf("core", "probepaths")
	out := d.Node.ProbePaths(reqs)
	d.tr.end(id)
	return out
}

func callSessionConfig() session.Config {
	cfg := session.DefaultConfig()
	// The 160 ms talk-spurt sees one probe tick of the active path and one
	// backup; the first keepalive would fall after it.
	cfg.Backups = 1
	cfg.ProbeInterval = 100 * time.Millisecond
	cfg.KeepaliveInterval = 250 * time.Millisecond
	cfg.KeepaliveBackoff = 50 * time.Millisecond
	return cfg
}

// place runs one call from a to b. Must run inside a scheduler task.
func (w *callSim) place(a, b *simNode, latent bool) (out callOutcome, line string) {
	tr := w.e.tr
	model := w.w.Model
	out.latent = latent
	op := tr.beginOp("bench", "call")
	defer tr.end(op)
	events0, rpcs0 := w.clk.Executed(), w.ct.rpcs()
	v0 := w.clk.Now()

	id := tr.begin("core", "setupcall")
	choice, err := a.n.SetupCall(b.addr)
	tr.end(id)
	if err != nil {
		out.failed = true
		return out, fmt.Sprintf("setupcall error %v", err)
	}
	out.setupRPCs = float64(w.ct.rpcs() - rpcs0)

	id = tr.begin("core", "setupmedia")
	mc, err := a.n.SetupMedia(b.addr)
	var cmc *core.MediaCall
	if err == nil {
		if cmc = b.n.MediaCallWith(a.addr); cmc == nil {
			err = fmt.Errorf("callee holds no media call")
		} else {
			_, err = cmc.WaitEstablished(10 * time.Second)
		}
	}
	tr.end(id)
	if err != nil {
		out.failed = true
		if mc != nil {
			_ = mc.Close()
		}
		return out, fmt.Sprintf("setupmedia error %v", err)
	}
	out.setupMS = float64(w.clk.Now()-v0) / 1e6

	// Talk-spurt under the session monitor.
	id = tr.begin("session", "talk")
	drv := probeSpanDriver{Node: a.n, tr: tr, ticks: &w.probeTicks}
	mgr, err := session.NewManager(callSessionConfig(), w.clk, drv, session.WithFlowOpener(a.n.EnsureFlow))
	if err != nil {
		tr.end(id)
		out.failed = true
		return out, fmt.Sprintf("session error %v", err)
	}
	active := session.Candidate{Relay: choice.Relay, Est: choice.EstRTT}
	var backups []session.Candidate
	slowest := choice.Direct
	for _, rc := range choice.Ranked {
		if len(backups) < 1 && rc.Relay != choice.Relay {
			backups = append(backups, session.Candidate{Relay: rc.Relay, Est: rc.Est})
			if rc.Est > slowest {
				slowest = rc.Est
			}
		}
	}
	var flowID uint64
	if choice.Relay != "" {
		flowID, _ = a.n.EnsureFlow(choice.Relay, b.addr)
	}
	sess, err := mgr.Open(b.addr, active, backups, flowID)
	if err != nil {
		tr.end(id)
		out.failed = true
		return out, fmt.Sprintf("session open error %v", err)
	}
	sess.AttachMedia(cmc.MediaSource())
	mgr.Start()
	heard := 0
	cmc.Flow().SetVoiceHandler(func(udp.Packet, transport.Addr) { heard++ })
	payload := make([]byte, 20)
	for k := 0; k < callTalkPackets; k++ {
		sid := tr.beginLeaf("core", "sendvoice")
		err := mc.Flow().SendVoice(payload)
		tr.end(sid)
		if err != nil {
			out.failed = true
		}
		w.clk.Sleep(20 * time.Millisecond)
	}
	// Stop the monitor with the spurt, then let the last packets land
	// (the media path is at most the direct one-way delay or two relay
	// legs) and any in-flight monitor tick finish before the span closes.
	final := sess.Active()
	out.switches = sess.Switches()
	mgr.Close()
	w.clk.Sleep(2*slowest + time.Second)
	tr.end(id)

	id = tr.begin("bench", "teardown")
	rx := cmc.Flow().Stats()
	_ = mc.Close()
	_ = cmc.Close()
	a.n.DropFlow(choice.Relay, b.addr)
	w.clk.Sleep(4*callMediaInfraLeg + 10*time.Millisecond) // unbinds reach the relay
	tr.end(id)

	// Score against ground truth.
	if heard != callTalkPackets {
		w.unheard += int64(callTalkPackets - heard)
		out.failed = true
	}
	if choice.Relay == "" && choice.Direct <= 0 && !choice.Degraded {
		w.noPath++
		out.failed = true
	}
	if choice.Relay != "" && !(choice.EstRTT < w.params.LatT || choice.EstRTT < choice.Direct) {
		w.badChoice++
	}
	truth, _ := model.HostRTT(a.host, b.host)
	if final.Relay != "" {
		if r := w.byAddr[final.Relay]; r != nil {
			if p, ok := w.w.Engine.OneHop(a.host, r.host, b.host); ok {
				truth = p.RTT
			}
		}
	}
	out.mos = netmodel.MOSFromRTT(truth, rx.Loss(), netmodel.CodecG729A)
	out.degraded = choice.Degraded
	out.rescued = latent && choice.Relay != "" && choice.EstRTT < w.params.LatT
	out.msgs = 2 * float64(w.ct.rpcs()-rpcs0)
	out.events = float64(w.clk.Executed() - events0)
	line = fmt.Sprintf("%s->%s relay=%q est=%d direct=%d degraded=%v cands=%d media=%v setup_ms=%.3f final=%q heard=%d msgs=%.0f mos=%.6f",
		a.addr, b.addr, choice.Relay, choice.EstRTT, choice.Direct, choice.Degraded, choice.Candidates,
		mc.Path(), out.setupMS, final.Relay, heard, out.msgs, out.mos)
	return out, line
}

func (w *callSim) rep(i int) (int64, int64, error) {
	_, _, calls := w.sizes()
	half := calls / 2
	pick := func(pairs [][2]int, k int) [2]int { return pairs[(i*half+k)%len(pairs)] }
	var failed int64
	w.clk.RunTask(func() {
		for k := 0; k < calls; k++ {
			latent := k%2 == 0
			pr := pick(w.otherPairs, k/2)
			if latent {
				pr = pick(w.latentPairs, k/2)
			}
			out, line := w.place(w.ends[pr[0]], w.ends[pr[1]], latent)
			if out.failed {
				failed++
				if failed == 1 {
					fmt.Fprintf(logw, "call_sim: repetition %d call %d failed: %s\n", i, k, line)
				}
			}
			if i >= 1 && i <= pinnedReps {
				w.outcomes = append(w.outcomes, out)
				w.dig.linef("%d/%d %s", i, k, line)
			}
		}
		if i >= 1 {
			w.relayLeft += int64(w.relay.LiveFlows())
		}
	})
	return int64(calls), failed, nil
}

func (w *callSim) finish(res *Result) {
	res.Digest = w.dig.sum()
	var setup, msgs, mos, events []float64
	var latent, rescued, degraded, failed, switches int
	for _, o := range w.outcomes {
		if o.failed {
			failed++
			continue
		}
		setup = append(setup, o.setupMS)
		msgs = append(msgs, o.msgs)
		mos = append(mos, o.mos)
		events = append(events, o.events)
		switches += o.switches
		if o.latent {
			latent++
			if o.rescued {
				rescued++
			}
		}
		if o.degraded {
			degraded++
		}
	}
	res.Metrics["setup_virtual_ms_p50"] = exact(percentile(setup, 50), "virtual_ms")
	res.Metrics["setup_virtual_ms_p99"] = exact(percentile(setup, 99), "virtual_ms")
	res.Metrics["msgs_per_call"] = exact(mean(msgs), "count")
	res.Metrics["mos_mean"] = exact(mean(mos), "MOS")
	if latent > 0 {
		res.Metrics["rescued_ratio"] = exact(float64(rescued)/float64(latent), "ratio")
	}
	res.check("call_sim.no_failed_calls", res.Failed == 0, "%d of %d calls failed", res.Failed, res.Attempted)
	res.check("call_sim.calls_have_path", w.noPath == 0, "%d calls had neither a relay, a direct path nor Degraded", w.noPath)
	res.check("call_sim.relay_choice_sound", w.badChoice == 0, "%d relayed choices were neither under LatT nor under direct", w.badChoice)
	res.check("call_sim.hear_every_packet", w.unheard == 0, "%d talk-spurt packets were not heard", w.unheard)
	res.check("call_sim.relay_drains", w.relayLeft == 0, "%d relay flows live after teardown", w.relayLeft)
	res.check("call_sim.latent_half", latent*2 == len(w.outcomes)-failed || failed > 0, "%d latent of %d calls", latent, len(w.outcomes))
	res.Counts["nodes"] = float64(len(w.nodes))
	res.Counts["endpoints"] = float64(len(w.ends))
	res.Counts["latent_pairs"] = float64(len(w.latentPairs))
	res.Counts["other_pairs"] = float64(len(w.otherPairs))
	res.Counts["pinned_calls"] = float64(len(w.outcomes))
	_, dsent, ddel := w.cnet.totals()
	res.Counts["datagrams_sent"] = float64(dsent)
	res.Counts["datagrams_delivered"] = float64(ddel)
	if res.Traced {
		var rpcs []float64
		for _, o := range w.outcomes {
			rpcs = append(rpcs, o.setupRPCs)
		}
		res.layer("core.setupcall_roundtrips", mean(rpcs))
		res.layer("core.degraded_ratio", float64(degraded)/float64(len(w.outcomes)))
		res.layer("session.switchovers", float64(switches))
		res.layer("sim.events_per_call", mean(events))
	}
}

func (w *callSim) teardown() {
	if w.clk == nil {
		return
	}
	w.clk.RunTask(func() {
		for _, sn := range w.nodes {
			sn.n.Close()
		}
	})
	for _, sn := range w.ends {
		if sn.box != nil {
			_ = sn.box.Close()
		}
	}
	_ = w.relay.Close()
	_ = w.stun.Close()
	_ = w.ctrl.Close()
	_ = w.pub.Close()
	w.clk, w.nodes, w.ends, w.byAddr, w.w = nil, nil, nil, nil, nil
	w.latentPairs, w.otherPairs = nil, nil
}

func (w *callSim) probes(res *Result, sum *traceSummary) {
	call := sum.get("bench.call")
	setupCall, setupMedia := sum.get("core.setupcall"), sum.get("core.setupmedia")
	if call.total > 0 {
		res.layer("trace.span_coverage", float64(setupCall.total+setupMedia.total)/float64(call.total))
	}
	res.layer("proc.op_us_p50", percentile(call.durs, 50))
	res.layer("proc.op_us_p99", percentile(call.durs, 99))
	res.layer("core.setupcall_us", median(setupCall.durs))
	res.layer("core.setupcall_self_us", median(setupCall.selves))
	res.layer("core.setupmedia_us", median(setupMedia.durs))
	res.layer("core.setupmedia_self_us", median(setupMedia.selves))
	res.layer("core.sendvoice_us", median(sum.get("core.sendvoice").durs))
	res.layer("core.join_us", median(sum.get("core.join").durs))
	res.layer("core.refresh_closeset_us", median(sum.get("core.refresh_closeset").durs))
	probe := sum.get("core.probepaths")
	res.layer("core.probepaths_us_per_tick", median(probe.durs))
	if probe.count > 0 {
		res.layer("core.probe_roundtrips_per_tick", float64(sum.get("transport.call.MsgProbeBatch").count)/float64(probe.count))
	}
	var bsDurs []float64
	for name, agg := range sum.byName {
		if strings.HasPrefix(name, "transport.bootstrap.") {
			bsDurs = append(bsDurs, agg.durs...)
		}
	}
	res.layer("core.bootstrap_call_us", median(bsDurs))

	// session: one Clock.Step() of a monitor with 1 active + 3 backups.
	clk := sim.NewClock()
	drv := &constDriver{clk: clk, lastAt: -1}
	mgr, err := session.NewManager(session.DefaultConfig(), clk, drv)
	if err == nil {
		_, err = mgr.Open("callee", session.Candidate{Relay: "slow", Est: 350 * time.Millisecond},
			[]session.Candidate{{Relay: "fast1", Est: 120 * time.Millisecond},
				{Relay: "fast2", Est: 125 * time.Millisecond}, {Relay: "fast3", Est: 130 * time.Millisecond}}, 1)
	}
	if err != nil {
		res.check("session.probe", false, "%v", err)
		return
	}
	mgr.Start()
	ns, allocs := probeMedian(5, 2000, func(int) { clk.Step() })
	mgr.Close()
	res.layer("session.tick_us", ns/1e3)
	res.layer("session.tick_allocs", allocs)
	if drv.ticks > 0 {
		res.layer("session.probes_per_tick", float64(drv.probes)/float64(drv.ticks))
	}

	// transport.Mem: an in-memory round trip, and what Chaos adds to it.
	mem := transport.NewMem()
	_, _ = mem.Serve("srv", func(_ transport.Addr, m *transport.Message) (*transport.Message, error) {
		resp := transport.AcquireMessage()
		resp.Type = transport.MsgPong
		return resp, nil
	})
	ping := func(tr transport.Transport) func(int) {
		return func(int) {
			req := transport.AcquireMessage()
			req.Type, req.From = transport.MsgPing, "cli"
			resp, err := tr.Call("srv", req)
			transport.ReleaseMessage(req)
			if err == nil {
				transport.ReleaseMessage(resp)
			}
		}
	}
	memNS, memAllocs := probeMedian(5, 50000, ping(mem))
	chaosNS, _ := probeMedian(5, 50000, ping(transport.NewChaos(mem, 1)))
	_ = mem.Close()
	res.layer("transport.mem_call_ns", memNS)
	res.layer("transport.mem_call_allocs", memAllocs)
	res.layer("transport.chaos_call_overhead_ns", chaosNS-memNS)
}

// constDriver serves constant measurements, as BenchmarkSessionSwitchover
// does: the backups beat the active path by more than the switch margin,
// so hysteresis streaks build and a switchover fires every
// SwitchConsecutive ticks — the full monitor decision path.
type constDriver struct {
	clk    *sim.Clock
	lastAt time.Duration
	ticks  int64 // distinct probe instants
	probes int64
}

func (d *constDriver) ProbePath(relay, callee transport.Addr) (time.Duration, float64, error) {
	d.probes++
	if now := d.clk.Now(); now != d.lastAt {
		d.lastAt = now
		d.ticks++
	}
	if relay == "slow" {
		return 350 * time.Millisecond, 0.05, nil
	}
	return 120 * time.Millisecond, 0.005, nil
}

func (*constDriver) Keepalive(target transport.Addr, flowID uint64) error { return nil }
