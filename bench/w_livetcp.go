package main

import (
	"fmt"
	"time"

	"asap/internal/sim"
	"asap/internal/transport"
)

// live_tcp: control RPCs over real kernel sockets on the host's
// LOOPBACK interface (no real link is crossed). One transport.NewTCP()
// server, one client, closed loop; the request envelope is acquired from
// and released to the message pool exactly as the actors do. Mix: 70 %
// ping/pong, 20 % MsgGetCloseSet -> 16-entry reply, 10 % MsgProbeBatch
// -> 4-RTT reply. It is the only workload where codec + framing +
// TCP.Call dominate: Mem never encodes.

const (
	tcpRPCsPerRep      = 5000
	tcpRPCsPerRepSmoke = 300
	tcpCloseSetEntries = 16
	tcpProbeLegs       = 4
)

type liveTCP struct {
	e    *env
	srv  *transport.TCP
	cli  *transport.TCP
	addr transport.Addr
	set  []transport.CloseEntry
	legs []transport.Addr
	rtts []time.Duration
	dig  *digest
}

func newLiveTCP(e *env) *liveTCP { return &liveTCP{e: e, dig: newDigest()} }

func (w *liveTCP) repSeconds() float64 { return 0.3 }

func (w *liveTCP) setup() error {
	w.set = make([]transport.CloseEntry, tcpCloseSetEntries)
	for i := range w.set {
		w.set[i] = transport.CloseEntry{
			ClusterKey:    fmt.Sprintf("10.%d.0.0/16", 100+i),
			SurrogateAddr: transport.Addr(fmt.Sprintf("10.%d.0.1:7600", 100+i)),
			RTT:           time.Duration(20+3*i) * time.Millisecond,
		}
	}
	w.legs = make([]transport.Addr, tcpProbeLegs)
	w.rtts = make([]time.Duration, tcpProbeLegs)
	for i := range w.legs {
		w.legs[i] = transport.Addr(fmt.Sprintf("10.%d.0.1:7600", 200+i))
		w.rtts[i] = time.Duration(40+7*i) * time.Millisecond
	}
	w.srv = transport.NewTCP()
	w.cli = transport.NewTCP()
	addr, err := w.srv.Serve("127.0.0.1:0", w.handle)
	if err != nil {
		return err
	}
	w.addr = addr
	return nil
}

// handle is the server side. The TCP transport recycles every response
// after writing it, so replies come from the pool; their slices are
// shared and only ever read.
func (w *liveTCP) handle(_ transport.Addr, req *transport.Message) (*transport.Message, error) {
	resp := transport.AcquireMessage()
	switch req.Type {
	case transport.MsgPing:
		resp.Type = transport.MsgPong
		resp.SentAt = req.SentAt
	case transport.MsgGetCloseSet:
		resp.Type = transport.MsgGetCloseSetReply
		resp.CloseSet = w.set
	case transport.MsgProbeBatch:
		if len(req.ProbeDsts) != tcpProbeLegs {
			transport.ReleaseMessage(resp)
			return nil, fmt.Errorf("probe batch with %d legs", len(req.ProbeDsts))
		}
		resp.Type = transport.MsgProbeBatchReply
		resp.ProbeRTTs = w.rtts
	default:
		transport.ReleaseMessage(resp)
		return nil, fmt.Errorf("unexpected request %v", req.Type)
	}
	return resp, nil
}

// rpc performs one request of the given kind and verifies the reply.
func (w *liveTCP) rpc(kind int, seq int) error {
	req := transport.AcquireMessage()
	req.From = "bench-client"
	switch kind {
	case 0:
		req.Type = transport.MsgPing
		req.SentAt = time.Duration(seq)
	case 1:
		req.Type = transport.MsgGetCloseSet
	default:
		req.Type = transport.MsgProbeBatch
		req.ProbeDsts = w.legs
	}
	resp, err := w.cli.Call(w.addr, req)
	transport.ReleaseMessage(req)
	if err != nil {
		return err
	}
	defer transport.ReleaseMessage(resp)
	switch kind {
	case 0:
		if resp.Type != transport.MsgPong || resp.SentAt != time.Duration(seq) {
			return fmt.Errorf("bad pong: %v sent_at=%v", resp.Type, resp.SentAt)
		}
	case 1:
		if resp.Type != transport.MsgGetCloseSetReply || len(resp.CloseSet) != tcpCloseSetEntries {
			return fmt.Errorf("bad close-set reply: %v, %d entries", resp.Type, len(resp.CloseSet))
		}
		for i, e := range resp.CloseSet {
			if e != w.set[i] {
				return fmt.Errorf("close-set entry %d corrupted: %+v", i, e)
			}
		}
	default:
		if resp.Type != transport.MsgProbeBatchReply || len(resp.ProbeRTTs) != tcpProbeLegs {
			return fmt.Errorf("bad probe reply: %v, %d legs", resp.Type, len(resp.ProbeRTTs))
		}
		for i, r := range resp.ProbeRTTs {
			if r != w.rtts[i] {
				return fmt.Errorf("probe leg %d corrupted: %v", i, r)
			}
		}
	}
	return nil
}

func (w *liveTCP) rep(i int) (int64, int64, error) {
	n := tcpRPCsPerRep
	if w.e.smoke {
		n = tcpRPCsPerRepSmoke
	}
	rng := sim.NewRNG(sim.SubSeed(w.e.seed, sim.StringLabel(wLiveTCP), uint64(i)))
	tr := w.e.tr
	var failed int64
	counts := [3]int{}
	for k := 0; k < n; k++ {
		kind := 0
		switch r := rng.Intn(10); {
		case r >= 9:
			kind = 2
		case r >= 7:
			kind = 1
		}
		counts[kind]++
		op := tr.beginOp("bench", "rpc")
		id := tr.beginLeaf("transport", "tcp_call")
		err := w.rpc(kind, k)
		tr.end(id)
		tr.end(op)
		if err != nil {
			failed++
			if failed == 1 {
				fmt.Fprintf(logw, "live_tcp: rpc %d of repetition %d failed: %v\n", k, i, err)
			}
		}
	}
	if i >= 1 && i <= pinnedReps {
		w.dig.linef("rep %d ping=%d closeset=%d probebatch=%d failed=%d", i, counts[0], counts[1], counts[2], failed)
	}
	return int64(n), failed, nil
}

func (w *liveTCP) finish(res *Result) {
	res.Digest = w.dig.sum()
	res.check("live_tcp.no_rpc_errors", res.Failed == 0, "%d of %d RPCs failed", res.Failed, res.Attempted)
	res.Counts["loopback"] = 1
}

func (w *liveTCP) teardown() {
	if w.srv != nil {
		_ = w.srv.Close()
		_ = w.cli.Close()
		w.srv, w.cli = nil, nil
	}
}

// tcpShape is one of the four message shapes the codec rows are measured on.
type tcpShape struct {
	name string
	msg  *transport.Message
}

func (w *liveTCP) tcpShapes() []tcpShape {
	return []tcpShape{
		{"ping", &transport.Message{Type: transport.MsgPing, From: "bench-client", SentAt: 123456789}},
		{"closeset", &transport.Message{Type: transport.MsgGetCloseSetReply, CloseSet: w.set}},
		{"voice", &transport.Message{Type: transport.MsgVoice, From: "bench-client", Dst: "10.200.0.1:7600", Seq: 42, FlowID: 7, Frames: make([]byte, 160)}},
		{"probebatch", &transport.Message{Type: transport.MsgProbeBatchReply, ProbeRTTs: w.rtts}},
	}
}

func (w *liveTCP) probes(res *Result, sum *traceSummary) {
	// Codec: AppendMessage / DecodeMessage on the workload's own shapes.
	var encAllocs, decAllocs float64
	codecNS := map[string]float64{}
	for _, sh := range w.tcpShapes() {
		name, m := sh.name, sh.msg
		buf := make([]byte, 0, 4096)
		encNS, ea := probeMedian(5, 20000, func(int) { buf = transport.AppendMessage(buf[:0], m) })
		frame := append([]byte(nil), transport.AppendMessage(nil, m)...)
		var out transport.Message
		var decErr error
		decNS, da := probeMedian(5, 20000, func(int) {
			out = transport.Message{}
			if err := transport.DecodeMessage(frame, &out); err != nil {
				decErr = err
			}
		})
		res.check("transport.decode."+name, decErr == nil && out.Type == m.Type, "decode %s: %v", name, decErr)
		res.layer("transport.encode_ns."+name, encNS)
		res.layer("transport.decode_ns."+name, decNS)
		res.layer("transport.frame_bytes."+name, float64(len(frame)+4))
		encAllocs += ea
		decAllocs += da
		codecNS[name] = encNS + decNS
	}
	res.layer("transport.encode_allocs", encAllocs/4)
	res.layer("transport.decode_allocs", decAllocs/4)

	// TCP.Call from the traced repetitions' spans.
	call := sum.get("transport.tcp_call")
	res.layer("transport.tcp_call_us_p50", percentile(call.durs, 50))
	res.layer("transport.tcp_call_us_p99", percentile(call.durs, 99))
	rpc := sum.get("bench.rpc")
	res.layer("proc.op_us_p50", percentile(rpc.durs, 50))
	res.layer("proc.op_us_p99", percentile(rpc.durs, 99))
	// Each RPC encodes and decodes a request and a reply; requests are
	// ping-sized, replies follow the 70/20/10 mix.
	codecUS := (codecNS["ping"] + 0.7*codecNS["ping"] + 0.2*codecNS["closeset"] + 0.1*codecNS["probebatch"]) / 1e3
	res.layer("transport.tcp_self_us", mean(call.durs)-codecUS)
	_, allocs := timeLoop(2000, func(k int) { _ = w.rpc(0, k) })
	res.layer("transport.tcp_call_allocs", allocs)
	if rpc.total > 0 {
		res.layer("trace.span_coverage", float64(call.total)/float64(rpc.total))
	}
}
