package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"asap/internal/nat"
	"asap/internal/netmodel"
	"asap/internal/sim"
	"asap/internal/transport"
	"asap/internal/transport/udp"
)

// voice_stream: the voice hot path. Virtual clock, in-memory packet
// network; 48 flows established in set-up — 16 direct, 16 punched
// (port-restricted NAT pair), 16 relayed (symmetric NAT pair through an
// HMAC-keyed RelayServer with a flow TTL) — all sending through
// Chaos.PacketNetwork. One repetition streams 10 virtual seconds at
// 50 packets/s per flow, in three phases: small (20 B, G.729A: per-packet
// cost dominates), large (160 B, G.711) and lossy (160 B with 5 % seeded
// drop and 10 ms added latency: the drop, delayed-delivery and RFC 3550
// gap-accounting paths instead of the clean fast path).

const (
	voicePairsPerRung = 16
	voiceTicksPerRep  = 500 // 10 virtual s at 50 pps
	voiceTicksSmoke   = 60
	voiceTick         = 20 * time.Millisecond
	voiceOneWay       = 10 * time.Millisecond
	voiceLossyDrop    = 0.05
	voiceLossyExtra   = 10 * time.Millisecond
)

var voiceRungs = []udp.PathKind{udp.PathDirect, udp.PathPunched, udp.PathRelayed}

type voicePair struct {
	rung     udp.PathKind
	snd, rcv *udp.Flow
	heard    int64
}

type voicePhase struct {
	name    string
	payload []byte
	lossy   bool
}

type voiceStream struct {
	e     *env
	clk   *sim.Clock
	pub   *transport.Mem
	chaos *transport.Chaos
	cnet  *countingPacketNet
	stun  *udp.STUNServer
	relay *udp.RelayServer
	boxes []*nat.Box
	pairs []*voicePair

	estVirtualMS map[udp.PathKind][]float64
	discoverUS   []float64
	phaseUS      map[string][]float64 // per-repetition µs per packet, by phase
	dig          *digest
	sent, heard  int64         // cumulative over measured repetitions
	pinnedRx     []udp.RxStats // receiver accounting after the last pinned repetition
	dropped      int64
}

func newVoiceStream(e *env) *voiceStream { return &voiceStream{e: e} }

func (w *voiceStream) repSeconds() float64 { return 0.25 }

func (w *voiceStream) ticks() int {
	if w.e.smoke {
		return voiceTicksSmoke
	}
	return voiceTicksPerRep
}

func (w *voiceStream) setup() error {
	w.estVirtualMS = map[udp.PathKind][]float64{}
	w.discoverUS = nil
	w.phaseUS = map[string][]float64{}
	w.dig = newDigest()
	w.sent, w.heard, w.dropped, w.pinnedRx = 0, 0, 0, nil
	w.pairs, w.boxes = nil, nil

	w.clk = sim.NewClock()
	w.pub = transport.NewMem()
	w.pub.Sched = w.clk
	w.pub.Latency = func(from, to transport.Addr) time.Duration { return voiceOneWay }
	w.chaos = transport.NewChaos(nil, sim.SubSeed(w.e.seed, sim.StringLabel(wVoiceStream)))
	w.chaos.Sched = w.clk
	// Senders write through chaos (faults) and the counting decorator;
	// STUN and the relay sit on the raw public network, so a datagram can
	// be dropped on its first leg only and every drop is one lost packet.
	w.cnet = newCountingPacketNet(w.chaos.PacketNetwork(w.pub))

	var err error
	if w.stun, err = udp.NewSTUNServer(w.pub, "stun.bench:3478"); err != nil {
		return err
	}
	key := []byte(fmt.Sprintf("bench-relay-key-%d", w.e.seed))
	w.relay, err = udp.NewRelayServerWith(w.pub, "relay.bench:5000", w.clk,
		udp.RelayConfig{Secret: key, FlowTTL: 30 * time.Second})
	if err != nil {
		return err
	}

	var setupErr error
	w.clk.RunTask(func() {
		token := uint32(1000)
		for _, rung := range voiceRungs {
			for i := 0; i < voicePairsPerRung; i++ {
				token++
				p, err := w.establishPair(rung, i, token, key)
				if err != nil {
					setupErr = fmt.Errorf("%v pair %d: %w", rung, i, err)
					return
				}
				w.pairs = append(w.pairs, p)
			}
		}
	})
	return setupErr
}

// establishPair opens, discovers and establishes one sender/receiver
// pair on the wanted rung. Must run inside a scheduler task.
func (w *voiceStream) establishPair(rung udp.PathKind, i int, token uint32, key []byte) (*voicePair, error) {
	var netA, netB transport.PacketNetwork = w.cnet, w.cnet
	hostA, hostB := fmt.Sprintf("10.%d.%d.1", int(rung), i), fmt.Sprintf("10.%d.%d.2", int(rung), i)
	if rung != udp.PathDirect {
		typ := nat.PortRestricted
		if rung == udp.PathRelayed {
			typ = nat.Symmetric
		}
		boxA := nat.New(typ, w.cnet, fmt.Sprintf("203.%d.%d.1", int(rung), i), 40000)
		boxB := nat.New(typ, w.cnet, fmt.Sprintf("198.%d.%d.1", int(rung), i), 41000)
		w.boxes = append(w.boxes, boxA, boxB)
		netA, netB = boxA, boxB
		hostA, hostB = "192.168.0.2", "192.168.1.2"
	}
	epA, err := udp.NewEndpoint(netA, w.clk, udp.DefaultConfig())
	if err != nil {
		return nil, err
	}
	epB, err := udp.NewEndpoint(netB, w.clk, udp.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fa, err := epA.Open(transport.Addr(hostA+":5000"), token)
	if err != nil {
		return nil, err
	}
	fb, err := epB.Open(transport.Addr(hostB+":5000"), token)
	if err != nil {
		return nil, err
	}
	proof := udp.RelayProof(key, token)
	fa.SetRelayAuth(proof)
	fb.SetRelayAuth(proof)

	t0 := time.Now()
	extA, err := fa.Discover(w.stun.Addr())
	if err != nil {
		return nil, err
	}
	w.discoverUS = append(w.discoverUS, float64(time.Since(t0).Nanoseconds())/1e3)
	extB, err := fb.Discover(w.stun.Addr())
	if err != nil {
		return nil, err
	}

	start := w.clk.Now()
	var kinds [2]udp.PathKind
	var errs [2]error
	w.clk.Join(2,
		func() { kinds[0], errs[0] = fa.Establish(extB, w.relay.Addr(), true) },
		func() { kinds[1], errs[1] = fb.Establish(extA, w.relay.Addr(), false) },
	)
	for k := range errs {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if kinds[k] != rung {
			return nil, fmt.Errorf("landed on %v, want %v", kinds[k], rung)
		}
	}
	w.estVirtualMS[rung] = append(w.estVirtualMS[rung], float64(w.clk.Now()-start)/1e6)
	p := &voicePair{rung: rung, snd: fa, rcv: fb}
	fb.SetVoiceHandler(func(udp.Packet, transport.Addr) { p.heard++ })
	return p, nil
}

func (w *voiceStream) phases() []voicePhase {
	return []voicePhase{
		{"small", make([]byte, 20), false},
		{"large", make([]byte, 160), false},
		{"lossy", make([]byte, 160), true},
	}
}

// stream sends ticks rounds of one packet per pair, 20 virtual ms apart.
// Must run inside a scheduler task.
func (w *voiceStream) stream(pairs []*voicePair, ticks int, payload []byte) error {
	tr := w.e.tr
	for t := 0; t < ticks; t++ {
		op := tr.beginOp("bench", "tick")
		for _, p := range pairs {
			id := tr.beginLeaf("udp", "sendvoice")
			err := p.snd.SendVoice(payload)
			tr.end(id)
			if err != nil {
				tr.end(op)
				return err
			}
		}
		// The deliveries, relay forwards and receive handlers of this
		// tick's packets run while the driver task is parked here.
		id := tr.begin("sim", "sleep_deliver")
		w.clk.Sleep(voiceTick)
		tr.end(id)
		tr.end(op)
	}
	return nil
}

func (w *voiceStream) heardTotal() int64 {
	var n int64
	for _, p := range w.pairs {
		n += p.heard
	}
	return n
}

func (w *voiceStream) rep(i int) (int64, int64, error) {
	ticks := w.ticks()
	per := []int{ticks - 2*(ticks/3), ticks / 3, ticks / 3}
	heard0 := w.heardTotal()
	drop0 := int64(w.chaos.Stats().Dropped)
	var sent int64
	var err error
	w.clk.RunTask(func() {
		for k, ph := range w.phases() {
			if ph.lossy {
				w.chaos.DropDefault(voiceLossyDrop)
				w.chaos.LatencyDefault(voiceLossyExtra)
			}
			t0 := time.Now()
			err = w.stream(w.pairs, per[k], ph.payload)
			n := int64(per[k] * len(w.pairs))
			sent += n
			if i >= 1 {
				w.phaseUS[ph.name] = append(w.phaseUS[ph.name], float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
			}
			if err != nil {
				return
			}
		}
		w.chaos.DropDefault(0)
		w.chaos.LatencyDefault(0)
		w.clk.Sleep(200 * time.Millisecond) // drain in-flight deliveries
	})
	if err != nil {
		return 0, 0, err
	}
	heard := w.heardTotal() - heard0
	dropped := int64(w.chaos.Stats().Dropped) - drop0
	failed := sent - heard - dropped
	if failed < 0 {
		failed = -failed // heard more than sent: as wrong as a loss
	}
	if i >= 1 {
		w.sent += sent
		w.heard += heard
		w.dropped += dropped
		if i <= pinnedReps {
			w.dig.linef("rep %d sent=%d heard=%d dropped=%d", i, sent, heard, dropped)
			// mos_mean must depend on the seed alone, not on how many
			// repetitions -seconds buys: score the pinned ones.
			w.pinnedRx = w.pinnedRx[:0]
			for _, p := range w.pairs {
				w.pinnedRx = append(w.pinnedRx, p.rcv.Stats())
			}
		}
	}
	return sent, failed, nil
}

func (w *voiceStream) finish(res *Result) {
	// One clean packet per flow after the last repetition, so a drop at
	// the very end of the last lossy phase still opens a sequence gap and
	// RFC 3550 loss is complete when it is compared with the drop count.
	w.clk.RunTask(func() {
		_ = w.stream(w.pairs, 1, make([]byte, 20))
		w.clk.Sleep(200 * time.Millisecond)
	})
	var lost, rxPackets int64
	var mos, jitter []float64
	for k, p := range w.pairs {
		st := p.rcv.Stats()
		lost += st.Lost
		rxPackets += st.Packets
		jitter = append(jitter, float64(st.Jitter)/1e6)
		oneWay := voiceOneWay
		if p.rung == udp.PathRelayed {
			oneWay = 2 * voiceOneWay
		}
		pin := w.pinnedRx[k]
		mos = append(mos, netmodel.MOS(oneWay+2*pin.Jitter, pin.Loss(), netmodel.CodecG729A))
	}
	allDropped := int64(w.chaos.Stats().Dropped)
	res.Metrics["mos_mean"] = exact(mean(mos), "MOS")
	res.Digest = w.dig.sum()
	res.check("voice_stream.lossless_hear_all", w.sent-w.heard == w.dropped,
		"sent %d, heard %d, chaos dropped %d", w.sent, w.heard, w.dropped)
	res.check("voice_stream.rfc3550_loss_equals_drops", lost == allDropped,
		"receivers count %d lost, chaos dropped %d", lost, allDropped)
	res.check("voice_stream.lossy_phase_dropped", w.dropped > 0, "no packet was dropped in any lossy phase")
	res.check("voice_stream.relay_no_rejects", w.relay.AuthRejections()+w.relay.QuotaRejections() == 0,
		"auth %d quota %d", w.relay.AuthRejections(), w.relay.QuotaRejections())
	res.Counts["flows"] = float64(len(w.pairs))
	res.Counts["chaos_dropped"] = float64(w.dropped)
	res.Counts["relay_forwarded"] = float64(w.relay.Forwarded())
	sockets, dsent, ddel := w.cnet.totals()
	res.Counts["sockets"] = float64(sockets)
	res.Counts["datagrams_sent"] = float64(dsent)
	res.Counts["datagrams_delivered"] = float64(ddel)

	if res.Traced {
		res.layer("udp.delivered_ratio", float64(w.heard)/float64(w.sent))
		res.layer("udp.rx_loss_ratio", float64(lost)/float64(lost+rxPackets))
		res.layer("udp.rx_jitter_ms", mean(jitter))
		res.layer("udp.relay_rejects", float64(w.relay.AuthRejections()+w.relay.QuotaRejections()))
		return // probes still needs the flows; it closes them when done
	}
	w.closeFlows(res)
}

// closeFlows closes every flow and checks that the relay's flow table
// and the NAT boxes' mapping tables drain.
func (w *voiceStream) closeFlows(res *Result) {
	w.clk.RunTask(func() {
		for _, p := range w.pairs {
			_ = p.snd.Close()
			_ = p.rcv.Close()
		}
		w.clk.Sleep(200 * time.Millisecond) // let the relay see the unbinds
	})
	mappings := 0
	for _, b := range w.boxes {
		mappings += len(b.Mappings())
	}
	if res == nil {
		return
	}
	res.check("voice_stream.relay_drains", w.relay.LiveFlows() == 0, "%d relay flows still live after close", w.relay.LiveFlows())
	res.check("voice_stream.nat_mappings_drain", mappings == 0, "%d NAT mappings left after close", mappings)
	if res.Traced {
		res.layer("udp.relay_live_flows_end", float64(w.relay.LiveFlows()))
		res.layer("nat.mappings_end", float64(mappings))
	}
}

func (w *voiceStream) teardown() {
	if w.clk == nil {
		return
	}
	w.closeFlows(nil) // a no-op unless this deployment was only a set-up sample
	for _, b := range w.boxes {
		_ = b.Close()
	}
	_ = w.relay.Close()
	_ = w.stun.Close()
	_ = w.pub.Close()
	w.clk, w.pairs, w.boxes = nil, nil, nil
}

func (w *voiceStream) probes(res *Result, sum *traceSummary) {
	send, sleep := sum.get("udp.sendvoice"), sum.get("sim.sleep_deliver")
	if sum.opWall > 0 {
		res.layer("trace.span_coverage", float64(send.total+sleep.total)/float64(sum.opWall))
	}
	for _, rung := range voiceRungs {
		res.layer("udp.establish_virtual_ms."+rung.String(), median(w.estVirtualMS[rung]))
	}
	res.layer("udp.discover_us", median(w.discoverUS))
	res.layer("udp.pkt_us.lossy", median(w.phaseUS["lossy"]))

	// Per-rung cost: stream each third of the flows on its own.
	ticks := 250
	if w.e.smoke {
		ticks = 20
	}
	perRung := map[udp.PathKind]float64{}
	var allocs, bytes []float64
	payload := make([]byte, 160)
	for _, rung := range voiceRungs {
		var pairs []*voicePair
		for _, p := range w.pairs {
			if p.rung == rung {
				pairs = append(pairs, p)
			}
		}
		var us []float64
		for r := 0; r < 3; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			w.clk.RunTask(func() {
				_ = w.stream(pairs, ticks, payload)
				w.clk.Sleep(200 * time.Millisecond)
			})
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			n := float64(ticks * len(pairs))
			us = append(us, float64(el.Nanoseconds())/1e3/n)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		}
		perRung[rung] = median(us)
		res.layer("udp.pkt_us."+rung.String(), perRung[rung])
	}
	res.layer("udp.pkt_allocs", mean(allocs))
	res.layer("udp.pkt_bytes", mean(bytes))
	res.layer("udp.relay_forward_us", perRung[udp.PathRelayed]-perRung[udp.PathDirect])
	res.layer("nat.translate_overhead_us", perRung[udp.PathPunched]-perRung[udp.PathDirect])

	// Packet codec.
	pkt := udp.Packet{Type: udp.PTVoice, Seq: 7, TS: 123456, SSRC: 99, Payload: payload}
	buf := make([]byte, 0, 256)
	ns, _ := probeMedian(5, 50000, func(int) { buf = pkt.AppendTo(buf[:0]) })
	res.layer("udp.packet_encode_ns", ns)
	var perr error
	ns, _ = probeMedian(5, 50000, func(int) {
		if _, err := udp.Parse(buf); err != nil {
			perr = err
		}
	})
	res.layer("udp.packet_decode_ns", ns)
	res.check("udp.packet_roundtrip", perr == nil, "%v", perr)

	w.closeFlows(res)
	w.liveProbe(res)
}

// liveProbe times a kernel UDP pair on the host's loopback interface
// (udp.NewLive): an isolated probe, outside the virtual-clock workload.
func (w *voiceStream) liveProbe(res *Result) {
	live := udp.NewLive()
	defer func() { _ = live.Close() }()
	var got atomic.Int64
	rcv, err := live.ListenPacket("127.0.0.1:0", func(transport.Addr, []byte) { got.Add(1) })
	if err != nil {
		res.check("udp.live_probe", false, "%v", err)
		return
	}
	snd, err := live.ListenPacket("127.0.0.1:0", func(transport.Addr, []byte) {})
	if err != nil {
		res.check("udp.live_probe", false, "%v", err)
		return
	}
	n := 5000
	if w.e.smoke {
		n = 200
	}
	pkt := udp.Packet{Type: udp.PTVoice, SSRC: 1, Payload: make([]byte, 160)}
	buf := make([]byte, 0, 256)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pkt.Seq = uint32(i)
		buf = pkt.AppendTo(buf[:0])
		want := got.Load() + 1
		_ = snd.WriteTo(rcv.LocalAddr(), buf)
		// Closed loop: wait for the datagram before sending the next, so
		// the socket buffer never overflows and nothing is lost.
		for deadline := time.Now().Add(50 * time.Millisecond); got.Load() < want && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	el := time.Since(t0)
	res.layer("udp.live_pkt_us", float64(el.Nanoseconds())/1e3/float64(n))
	res.layer("udp.live_delivered_ratio", float64(got.Load())/float64(n))
}
