package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// The registry is the one place every workload and metric name is
// declared. -list prints it, BENCHMARK.json is tested against it, and
// every later performance claim in this repository is "metric X on
// workload Y" using these names.

// Workload names.
const (
	wCallSim     = "call_sim"
	wSelectSmall = "select_small"
	wVoiceStream = "voice_stream"
	wLiveTCP     = "live_tcp"
	wScaleSim    = "scale_sim"
)

// runSeconds is BENCHMARK.json's run_seconds: the nominal measured time
// of one workload run, and the default of -seconds.
const runSeconds = 8

// WorkloadInfo describes one workload for -list and BENCHMARK.json.
type WorkloadInfo struct {
	Name string
	Op   string // what one operation is
	Why  string // one line: why the workload exists
}

// Workloads lists the five workloads in suite order.
var Workloads = []WorkloadInfo{
	{wCallSim, "one placed call",
		"the whole call on the virtual clock: SetupCall, SetupMedia, a talk-spurt under a session monitor, teardown; the non-latent half bypasses relay selection"},
	{wSelectSmall, "one ASAP selection scored against ground truth",
		"the paper's Fig 11-18 path over the small world in cold, warm and edit phases; stresses asgraph, netmodel, overlay and core.System, which call_sim bypasses"},
	{wVoiceStream, "one voice packet sent",
		"48 established flows (direct, punched, relayed) streaming small, large and lossy phases; the per-packet voice hot path does nearly all the work"},
	{wLiveTCP, "one control RPC over loopback TCP",
		"real kernel sockets on the host's loopback: codec, framing and TCP.Call dominate; every virtual-clock workload bypasses them"},
	{wScaleSim, "one executed virtual event",
		"eval.RunScale at population: joins, lease churn and calls, where sim.Clock task hand-off and join cost dominate and per-call work is negligible"},
}

// Metric is one end-to-end metric.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which the metric may
	// worsen before -compare calls it a regression. Zero means the
	// metric runs on the virtual clock or the ground-truth model and
	// must repeat exactly for a seed.
	Bound float64
	// Workloads the metric applies to; nil means all five.
	Workloads []string
	Def       string // how it is computed
	Who       string // whom the number is for
}

var allWorkloads = []string{wCallSim, wSelectSmall, wVoiceStream, wLiveTCP, wScaleSim}

// EndToEnd lists the twelve end-to-end metrics. The six that apply to
// every workload and are never zero are the end_to_end block of
// BENCHMARK.json; the other six are reported there as per-layer rows
// named "call.<name>" (see contractPerLayer), because the driver's
// contract wants every end_to_end metric on every workload.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, nil,
		"deployment build plus one warm-up repetition, median of the set-ups in the run",
		"anyone starting a deployment or a test run; shows work moved out of the measured part"},
	{"wall_us_per_op", "us", "lower", 0.25, nil,
		"repetition wall time / operations, median of the five fastest repetitions",
		"the operator paying for machines: what one call, packet, RPC or event costs in elapsed time"},
	{"user_cpu_us_per_op", "us", "lower", 0.25, nil,
		"getrusage user-time delta / operations, median over repetitions (sys time is a per-layer row)",
		"the performance engineer: CPU actually burnt, without time descheduled or in the kernel"},
	{"allocs_per_op", "count", "lower", 0.03, nil,
		"MemStats.Mallocs delta / operations, median over repetitions",
		"the performance engineer: GC pressure per operation"},
	{"bytes_per_op", "B", "lower", 0.03, nil,
		"MemStats.TotalAlloc delta / operations, median over repetitions",
		"the performance engineer: allocation volume per operation"},
	{"live_heap_mb", "MB", "lower", 0.12, nil,
		"HeapAlloc after two GCs with the deployment still alive (scale_sim: BytesPerNode x Nodes)",
		"the operator sizing memory: resident state a deployment holds"},
	{"failed_ops_ratio", "ratio", "lower", 0, nil,
		"failed / attempted: calls erroring or ending with neither a path nor Degraded; packets sent - heard - chaos drops; RPC errors; scale_sim Failed/Calls",
		"the caller: a call that fails misses every latency limit"},
	{"setup_virtual_ms_p50", "virtual_ms", "lower", 0, []string{wCallSim},
		"scheduler time from SetupCall entry to media established, median over the pinned calls",
		"the caller waiting for the phone to ring"},
	{"setup_virtual_ms_p99", "virtual_ms", "lower", 0, []string{wCallSim},
		"same, p99 (3,000 pinned calls, so 30 samples beyond it)",
		"the caller on a bad day"},
	{"msgs_per_call", "count", "lower", 0, []string{wCallSim, wSelectSmall},
		"control messages per call: 2 x RPCs through the counting transport in call_sim; Outcome.Messages in select_small (Fig 18)",
		"the protocol designer: the paper's overhead metric"},
	{"mos_mean", "MOS", "higher", 0, []string{wCallSim, wSelectSmall, wVoiceStream},
		"E-Model (G.729A) on the ground-truth RTT of the path the call ended on and the listener's RFC 3550 loss; select_small: best of Outcome MOS and direct MOS; voice_stream: from Flow.Stats",
		"the listener: the quality the call delivered"},
	{"rescued_ratio", "ratio", "higher", 0, []string{wCallSim, wSelectSmall, wScaleSim},
		"latent calls that got a relay path estimated under LatT / latent calls (scale_sim: Relayed/Latent)",
		"the protocol designer: the paper's Fig 3b/11 question"},
}

// contractEndToEnd is the number of leading EndToEnd entries that apply
// to every workload and are never zero.
const contractEndToEnd = 6

// LayerMetric is one per-layer metric, measured only in a traced run.
type LayerMetric struct {
	Layer string
	Name  string
	Unit  string
	// Better is the direction an optimisation of the layer should move it.
	Better string
	// Home lists the workloads whose traced run measures it; it reads 0
	// on every other workload (that workload does not cross the layer).
	Home []string
	// Moves names the end-to-end metric@workload it should move.
	Moves string
}

const (
	lo = "lower"
	hi = "higher"
)

func lm(layer, name, unit, better string, home []string, moves string) LayerMetric {
	return LayerMetric{layer, name, unit, better, home, moves}
}

var (
	hCall   = []string{wCallSim}
	hSelect = []string{wSelectSmall}
	hVoice  = []string{wVoiceStream}
	hTCP    = []string{wLiveTCP}
	hScale  = []string{wScaleSim}
)

// PerLayer lists every per-layer metric.
var PerLayer = []LayerMetric{
	// asgraph
	lm("asgraph", "asgraph.vfbfs_us", "us", lo, hSelect, "wall_us_per_op@select_small (cold, edit)"),
	lm("asgraph", "asgraph.vfbfs_allocs", "count", lo, hSelect, "allocs_per_op@select_small (cold)"),
	lm("asgraph", "asgraph.route_table_us", "us", lo, hSelect, "wall_us_per_op@select_small (cold, edit)"),
	lm("asgraph", "asgraph.generate_s", "s", lo, hSelect, "setup_s@select_small,call_sim"),
	// bgp / cluster
	lm("bgp", "bgp.trie_lookup_ns", "ns", lo, hScale, "wall_us_per_op@scale_sim (join share)"),
	lm("bgp", "bgp.allocate_s", "s", lo, hSelect, "setup_s@select_small,call_sim"),
	lm("cluster", "cluster.generate_s", "s", lo, hSelect, "setup_s@select_small,call_sim"),
	// netmodel
	lm("netmodel", "netmodel.cluster_rtt_warm_ns", "ns", lo, hSelect, "wall_us_per_op@select_small (warm)"),
	lm("netmodel", "netmodel.cluster_rtt_cold_us", "us", lo, hSelect, "wall_us_per_op@select_small (cold, edit)"),
	lm("netmodel", "netmodel.stats_batch_ns_per_pair", "ns", lo, hSelect, "wall_us_per_op@select_small"),
	lm("netmodel", "netmodel.stats_batch_allocs", "count", lo, hSelect, "allocs_per_op@select_small"),
	lm("netmodel", "netmodel.probe_cluster_set_us", "us", lo, hSelect, "wall_us_per_op@select_small (cold)"),
	lm("netmodel", "netmodel.set_condition_us", "us", lo, hSelect, "wall_us_per_op@select_small (edit)"),
	lm("netmodel", "netmodel.refill_after_edit_us", "us", lo, hSelect, "wall_us_per_op@select_small (edit); read with cluster_rtt_warm_ns"),
	lm("netmodel", "netmodel.mos_ns", "ns", lo, hSelect, "wall_us_per_op@select_small (scoring share)"),
	lm("netmodel", "netmodel.new_s", "s", lo, hSelect, "setup_s@select_small,call_sim"),
	// overlay / baseline
	lm("overlay", "overlay.onehop_batch_ns_per_relay", "ns", lo, hSelect, "wall_us_per_op@select_small (scoring share)"),
	lm("overlay", "overlay.optimal_onehop_us", "us", lo, hSelect, "eval.comparison_sessions_per_s.*"),
	lm("baseline", "baseline.dedi_run_us", "us", lo, hSelect, "eval.comparison_sessions_per_s.*"),
	lm("baseline", "baseline.rand_run_us", "us", lo, hSelect, "eval.comparison_sessions_per_s.*"),
	lm("baseline", "baseline.mix_run_us", "us", lo, hSelect, "eval.comparison_sessions_per_s.*"),
	// core (System)
	lm("core", "core.closeset_build_us", "us", lo, hSelect, "wall_us_per_op@select_small (cold)"),
	lm("core", "core.closeset_build_allocs", "count", lo, hSelect, "allocs_per_op@select_small (cold)"),
	lm("core", "core.closeset_build_msgs", "count", lo, hSelect, "none end to end: amortized background overhead (Section 7.3)"),
	lm("core", "core.closeset_size_mean", "count", hi, hSelect, "rescued_ratio@select_small"),
	lm("core", "core.select_onehop_us", "us", lo, hSelect, "wall_us_per_op@select_small (warm)"),
	lm("core", "core.select_twohop_us", "us", lo, hSelect, "wall_us_per_op@select_small (warm)"),
	lm("core", "core.select_allocs", "count", lo, hSelect, "allocs_per_op@select_small (warm)"),
	lm("core", "core.select_msgs", "count", lo, hSelect, "msgs_per_call@select_small"),
	lm("core", "core.twohop_share", "ratio", lo, hSelect, "wall_us_per_op,msgs_per_call@select_small"),
	// core (actors)
	lm("core", "core.join_us", "us", lo, hCall, "setup_s@call_sim; wall_us_per_op@scale_sim"),
	lm("core", "core.refresh_closeset_us", "us", lo, hCall, "setup_s@call_sim"),
	lm("core", "core.setupcall_us", "us", lo, hCall, "wall_us_per_op@call_sim (latent half)"),
	lm("core", "core.setupcall_self_us", "us", lo, hCall, "wall_us_per_op@call_sim (latent half)"),
	lm("core", "core.setupcall_roundtrips", "count", lo, hCall, "msgs_per_call,setup_virtual_ms_*@call_sim"),
	lm("core", "core.setupmedia_us", "us", lo, hCall, "wall_us_per_op@call_sim"),
	lm("core", "core.setupmedia_self_us", "us", lo, hCall, "wall_us_per_op@call_sim"),
	lm("core", "core.sendvoice_us", "us", lo, hCall, "wall_us_per_op@call_sim (talk share)"),
	lm("core", "core.probepaths_us_per_tick", "us", lo, hCall, "wall_us_per_op@call_sim (talk share)"),
	lm("core", "core.probe_roundtrips_per_tick", "count", lo, hCall, "msgs_per_call@call_sim"),
	lm("core", "core.degraded_ratio", "ratio", lo, hCall, "rescued_ratio,mos_mean@call_sim"),
	lm("core", "core.bootstrap_call_us", "us", lo, hCall, "setup_s@call_sim; wall_us_per_op@scale_sim"),
	// session
	lm("session", "session.tick_us", "us", lo, hCall, "wall_us_per_op@call_sim (not select_small)"),
	lm("session", "session.tick_allocs", "count", lo, hCall, "allocs_per_op@call_sim"),
	lm("session", "session.probes_per_tick", "count", lo, hCall, "msgs_per_call@call_sim"),
	lm("session", "session.switchovers", "count", lo, hCall, "mos_mean@call_sim"),
	// sim
	lm("sim", "sim.timer_event_ns", "ns", lo, hScale, "wall_us_per_op@scale_sim,call_sim,voice_stream; never live_tcp"),
	lm("sim", "sim.task_handoff_us", "us", lo, hScale, "wall_us_per_op,user_cpu_us_per_op@scale_sim first, then call_sim,voice_stream; never live_tcp"),
	lm("sim", "sim.join_fanout_us", "us", lo, hScale, "wall_us_per_op@scale_sim,call_sim"),
	lm("sim", "sim.events_per_call", "count", lo, hCall, "wall_us_per_op@call_sim"),
	lm("sim", "sim.shard2_wall_ratio", "ratio", lo, hScale, "none end to end: researcher throughput at 2 shards"),
	lm("sim", "sim.shard_digest_equal", "count", hi, hScale, "correctness: 1 = outcomes identical at 1 and 2 shards"),
	// transport
	lm("transport", "transport.encode_ns.ping", "ns", lo, hTCP, "wall_us_per_op@live_tcp; must not move a virtual-clock workload"),
	lm("transport", "transport.encode_ns.closeset", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.encode_ns.voice", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.encode_ns.probebatch", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.decode_ns.ping", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.decode_ns.closeset", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.decode_ns.voice", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.decode_ns.probebatch", "ns", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.encode_allocs", "count", lo, hTCP, "allocs_per_op@live_tcp"),
	lm("transport", "transport.decode_allocs", "count", lo, hTCP, "allocs_per_op@live_tcp"),
	lm("transport", "transport.frame_bytes.ping", "B", lo, hTCP, "bytes on the wire; none end to end on loopback"),
	lm("transport", "transport.frame_bytes.closeset", "B", lo, hTCP, "bytes on the wire"),
	lm("transport", "transport.frame_bytes.voice", "B", lo, hTCP, "bytes on the wire"),
	lm("transport", "transport.frame_bytes.probebatch", "B", lo, hTCP, "bytes on the wire"),
	lm("transport", "transport.mem_call_ns", "ns", lo, hCall, "wall_us_per_op@call_sim,scale_sim"),
	lm("transport", "transport.mem_call_allocs", "count", lo, hCall, "allocs_per_op@call_sim,scale_sim"),
	lm("transport", "transport.tcp_call_us_p50", "us", lo, hTCP, "wall_us_per_op@live_tcp and nothing else"),
	lm("transport", "transport.tcp_call_us_p99", "us", lo, hTCP, "wall_us_per_op@live_tcp"),
	lm("transport", "transport.tcp_call_allocs", "count", lo, hTCP, "allocs_per_op,bytes_per_op@live_tcp"),
	lm("transport", "transport.tcp_self_us", "us", lo, hTCP, "wall_us_per_op@live_tcp (call - encode - decode)"),
	lm("transport", "transport.chaos_call_overhead_ns", "ns", lo, hCall, "none at this commit: call_sim runs without control-plane chaos"),
	// udp
	lm("udp", "udp.packet_encode_ns", "ns", lo, hVoice, "wall_us_per_op@voice_stream"),
	lm("udp", "udp.packet_decode_ns", "ns", lo, hVoice, "wall_us_per_op@voice_stream"),
	lm("udp", "udp.pkt_us.direct", "us", lo, hVoice, "wall_us_per_op@voice_stream"),
	lm("udp", "udp.pkt_us.punched", "us", lo, hVoice, "wall_us_per_op@voice_stream"),
	lm("udp", "udp.pkt_us.relayed", "us", lo, hVoice, "wall_us_per_op@voice_stream"),
	lm("udp", "udp.pkt_us.lossy", "us", lo, hVoice, "wall_us_per_op@voice_stream (lossy phase)"),
	lm("udp", "udp.pkt_allocs", "count", lo, hVoice, "allocs_per_op@voice_stream"),
	lm("udp", "udp.pkt_bytes", "B", lo, hVoice, "bytes_per_op@voice_stream"),
	lm("udp", "udp.relay_forward_us", "us", lo, hVoice, "wall_us_per_op@voice_stream (relayed third)"),
	lm("udp", "udp.establish_virtual_ms.direct", "virtual_ms", lo, hVoice, "setup_virtual_ms_*@call_sim"),
	lm("udp", "udp.establish_virtual_ms.punched", "virtual_ms", lo, hVoice, "setup_virtual_ms_*@call_sim"),
	lm("udp", "udp.establish_virtual_ms.relayed", "virtual_ms", lo, hVoice, "setup_virtual_ms_*@call_sim"),
	lm("udp", "udp.discover_us", "us", lo, hVoice, "setup_s@voice_stream; wall_us_per_op@call_sim"),
	lm("udp", "udp.delivered_ratio", "ratio", hi, hVoice, "failed_ops_ratio@voice_stream"),
	lm("udp", "udp.rx_loss_ratio", "ratio", lo, hVoice, "mos_mean@voice_stream"),
	lm("udp", "udp.rx_jitter_ms", "ms", lo, hVoice, "mos_mean@voice_stream"),
	lm("udp", "udp.relay_rejects", "count", lo, hVoice, "failed_ops_ratio@voice_stream"),
	lm("udp", "udp.relay_live_flows_end", "count", lo, hVoice, "correctness: relay tables drain"),
	lm("udp", "udp.live_pkt_us", "us", lo, hVoice, "none: kernel loopback UDP pair, isolated probe"),
	lm("udp", "udp.live_delivered_ratio", "ratio", hi, hVoice, "none: kernel loopback UDP pair, isolated probe"),
	// nat
	lm("nat", "nat.translate_overhead_us", "us", lo, hVoice, "wall_us_per_op@voice_stream (punched and relayed thirds)"),
	lm("nat", "nat.mappings_end", "count", lo, hVoice, "live_heap_mb@voice_stream"),
	// eval
	lm("eval", "eval.build_world_s", "s", lo, hSelect, "setup_s@select_small,call_sim"),
	lm("eval", "eval.comparison_sessions_per_s.w1", "1/s", hi, hSelect, "none: researcher throughput"),
	lm("eval", "eval.comparison_sessions_per_s.wn", "1/s", hi, hSelect, "none: researcher throughput at nproc workers"),
	lm("eval", "eval.parallel_efficiency", "ratio", hi, hSelect, "none: the only multi-goroutine number in the suite"),
	// process (every workload)
	lm("process", "proc.sys_cpu_us_per_op", "us", lo, allWorkloads, "explains wall - user gaps on every workload"),
	lm("process", "proc.gc_cycles", "count", lo, allWorkloads, "wall_us_per_op on every workload"),
	lm("process", "proc.gc_pause_ms", "ms", lo, allWorkloads, "wall_us_per_op on every workload"),
	lm("process", "proc.op_us_p50", "us", lo, []string{wCallSim, wSelectSmall, wLiveTCP}, "wall_us_per_op where ops are individually timed"),
	lm("process", "proc.op_us_p99", "us", lo, []string{wCallSim, wSelectSmall, wLiveTCP}, "wall_us_per_op where ops are individually timed"),
	lm("process", "trace.overhead_ratio", "ratio", lo, allWorkloads, "none: traced/untraced wall_us_per_op, must stay <= 1.25"),
	lm("process", "trace.span_coverage", "ratio", hi, allWorkloads, "none: share of op wall time the workload's named spans cover"),
}

// contractPerLayer returns the per_layer block of BENCHMARK.json: the
// six end-to-end metrics the contract cannot carry as end_to_end (they
// do not apply to every workload, or are zero when all is well),
// renamed "call.<name>", followed by every PerLayer row.
func contractPerLayer() []LayerMetric {
	var out []LayerMetric
	for _, m := range EndToEnd[contractEndToEnd:] {
		home := m.Workloads
		if home == nil {
			home = allWorkloads
		}
		out = append(out, LayerMetric{"call", "call." + m.Name, m.Unit, m.Better, home, "end-to-end metric " + m.Name})
	}
	return append(out, PerLayer...)
}

func (m Metric) appliesTo(w string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, x := range m.Workloads {
		if x == w {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	out := make([]string, len(Workloads))
	for i, w := range Workloads {
		out[i] = w.Name
	}
	return out
}

// printList implements -list.
func printList(w io.Writer) {
	fmt.Fprintln(w, "WORKLOADS")
	for _, wl := range Workloads {
		fmt.Fprintf(w, "  %-13s op = %s\n  %-13s %s\n", wl.Name, wl.Op, "", wl.Why)
	}
	fmt.Fprintln(w, "\nEND-TO-END METRICS (from the untraced run; bound 0 = must repeat exactly for a seed)")
	for _, m := range EndToEnd {
		on := "all"
		if m.Workloads != nil {
			on = strings.Join(m.Workloads, ",")
		}
		fmt.Fprintf(w, "  %-22s %-10s %-6s bound %-5s on %s\n  %-22s = %s\n  %-22s for %s\n",
			m.Name, m.Unit, m.Better, fmtBound(m.Bound), on, "", m.Def, "", m.Who)
	}
	fmt.Fprintln(w, "\nPER-LAYER METRICS (from the traced run; no bound; 0 on workloads that do not cross the layer)")
	layers := map[string][]LayerMetric{}
	var order []string
	for _, m := range PerLayer {
		if _, ok := layers[m.Layer]; !ok {
			order = append(order, m.Layer)
		}
		layers[m.Layer] = append(layers[m.Layer], m)
	}
	for _, l := range order {
		fmt.Fprintf(w, "  [%s]\n", l)
		for _, m := range layers[l] {
			fmt.Fprintf(w, "    %-38s %-10s %-6s measured on %-28s moves %s\n",
				m.Name, m.Unit, m.Better, strings.Join(m.Home, ","), m.Moves)
		}
	}
}

func fmtBound(b float64) string {
	if b == 0 {
		return "0"
	}
	return fmt.Sprintf("%g%%", b*100)
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
