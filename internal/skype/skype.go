// Package skype models a Skype-like, AS-unaware peer-relay VoIP client
// and the trace analysis of Section 5. The paper measured 14 real call
// sessions between 17 sites (Fig. 5 / Table 1) with WinDump and found four
// limits: suboptimal relay choices, probing multiple nodes in one AS
// (Table 2), long stabilization times with relay bounce (Fig. 7(a)), and
// heavy probe overhead (Figs. 7(b), 7(c)).
//
// The simulator reproduces the *behavioural mechanism* behind those
// limits: random supernode probing without AS knowledge, greedy switching
// to whichever probed path currently measures best, and continued
// background probing. The analyzer then processes the emitted event trace
// exactly as the paper processed pcap files.
package skype

import (
	"fmt"
	"time"

	"asap/internal/cluster"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// EventKind tags a trace event.
type EventKind int8

// Event kinds.
const (
	// EventProbe is a relay-path probe: the client measured a candidate.
	EventProbe EventKind = iota + 1
	// EventSwitch is a change of the active voice path.
	EventSwitch
	// EventPacket is a voice-packet batch on the active path.
	EventPacket
)

// Event is one record of a session trace.
type Event struct {
	At   time.Duration
	Kind EventKind
	// Relay is the probed or adopted relay host; -1 means the direct path.
	Relay cluster.HostID
	// RTT is the measured path RTT (probe and switch events).
	RTT time.Duration
	// Packets is the voice-packet count (packet events).
	Packets int
}

// Trace is the full event record of one simulated session, the analogue
// of one WinDump capture.
type Trace struct {
	Session   int
	Caller    cluster.HostID
	Callee    cluster.HostID
	Events    []Event
	CallEnd   time.Duration
	DirectRTT time.Duration
}

// The client's fixed probing and voice behaviour, after the supernode
// behaviour Baset & Schulzrinne measured.
const (
	// probesPerRound is how many new supernodes each round probes.
	probesPerRound = 2
	// directThreshold: below this measured direct RTT the client prefers
	// the direct path.
	directThreshold = 140 * time.Millisecond
	// packetsPerSecond is the voice packet rate on the active path.
	packetsPerSecond = 33 // 30 ms frames
	// stableAfter is how long without a path switch the client considers
	// itself stabilized; new-node probing then backs off to every
	// stableProbeEvery-th round (the paper still observed 3-6 probed
	// nodes after stabilization — Fig. 7(c)).
	stableAfter      = 30 * time.Second
	stableProbeEvery = 6
)

// Config parameterizes the Skype-like client.
type Config struct {
	// SupernodePool is the number of known supernodes a client may probe.
	SupernodePool int
	// InitialBurst is the number of supernodes probed at call start.
	InitialBurst int
	// ProbeInterval is the background probing cadence.
	ProbeInterval time.Duration
	// SwitchMargin is the relative RTT improvement a candidate needs to
	// displace the active path (greedy switching = relay bounce).
	SwitchMargin float64
	// CallDuration is the simulated call length.
	CallDuration time.Duration
	// JitterFrac is the per-measurement jitter the client sees on top of
	// prober noise; re-measuring the same path gives different values,
	// which is what keeps the client switching.
	JitterFrac float64
}

// DefaultConfig mirrors the measured behaviour: bursts of early probes,
// frequent re-evaluation, and a small switching margin (Skype kept
// switching for minutes in session 10).
func DefaultConfig() Config {
	return Config{
		SupernodePool: 400,
		InitialBurst:  5,
		ProbeInterval: 5 * time.Second,
		SwitchMargin:  0.07,
		CallDuration:  6 * time.Minute,
		JitterFrac:    0.10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SupernodePool < 1:
		return fmt.Errorf("skype: SupernodePool must be >= 1")
	case c.InitialBurst < 1:
		return fmt.Errorf("skype: InitialBurst must be >= 1")
	case c.ProbeInterval <= 0:
		return fmt.Errorf("skype: ProbeInterval must be > 0")
	case c.SwitchMargin < 0:
		return fmt.Errorf("skype: SwitchMargin must be >= 0")
	case c.CallDuration <= 0:
		return fmt.Errorf("skype: CallDuration must be > 0")
	case c.JitterFrac < 0 || c.JitterFrac >= 1:
		return fmt.Errorf("skype: JitterFrac must be in [0,1)")
	}
	return nil
}

// Client simulates Skype-like sessions over a ground-truth model.
type Client struct {
	cfg    Config
	model  *netmodel.Model
	prober *netmodel.Prober
	rng    *sim.RNG
	// supernodes is the AS-unaware pool the client draws probes from.
	supernodes []cluster.HostID
}

// NewClient builds a client with a random supernode pool.
func NewClient(model *netmodel.Model, prober *netmodel.Prober, cfg Config, rng *sim.RNG) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pop := model.Population()
	if pop == nil {
		return nil, fmt.Errorf("skype: model has no population")
	}
	n := cfg.SupernodePool
	if n > pop.NumHosts() {
		n = pop.NumHosts()
	}
	nodes := make([]cluster.HostID, 0, n)
	for _, i := range rng.Sample(pop.NumHosts(), n) {
		nodes = append(nodes, cluster.HostID(i))
	}
	return &Client{cfg: cfg, model: model, prober: prober, rng: rng, supernodes: nodes}, nil
}

// jittered applies per-measurement network jitter.
func (c *Client) jittered(rtt time.Duration) time.Duration {
	f := 1 + c.rng.Normal(0, c.cfg.JitterFrac)
	if f < 0.2 {
		f = 0.2
	}
	return time.Duration(float64(rtt) * f)
}

// measurePath measures the current RTT of a path (direct when relay < 0).
func (c *Client) measurePath(caller, callee cluster.HostID, relay cluster.HostID) (time.Duration, bool) {
	if relay < 0 {
		rtt, ok := c.prober.HostRTT(caller, callee)
		if !ok {
			return 0, false
		}
		return c.jittered(rtt), true
	}
	a, ok1 := c.prober.HostRTT(caller, relay)
	b, ok2 := c.prober.HostRTT(relay, callee)
	if !ok1 || !ok2 {
		return 0, false
	}
	return c.jittered(a + b + overlay.RelayRTT), true
}

// Call simulates one session and returns its trace.
func (c *Client) Call(sessionID int, caller, callee cluster.HostID) (*Trace, error) {
	if caller == callee {
		return nil, fmt.Errorf("skype: caller and callee are the same host")
	}
	tr := &Trace{Session: sessionID, Caller: caller, Callee: callee, CallEnd: c.cfg.CallDuration}
	if rtt, ok := c.model.HostRTT(caller, callee); ok {
		tr.DirectRTT = rtt
	}

	var clock sim.Clock
	type pathState struct {
		relay   cluster.HostID // -1 = direct
		lastRTT time.Duration
	}
	active := pathState{relay: -1, lastRTT: 1<<62 - 1}
	probed := make(map[cluster.HostID]bool)
	// probedList keeps deterministic revisit order (map iteration order
	// would make traces non-reproducible).
	var probedList []cluster.HostID
	revisit := 0
	roundNo := 0
	lastSwitch := time.Duration(0)

	record := func(kind EventKind, relay cluster.HostID, rtt time.Duration, packets int) {
		tr.Events = append(tr.Events, Event{
			At: clock.Now(), Kind: kind, Relay: relay, RTT: rtt, Packets: packets,
		})
	}

	// consider updates the active path greedily — the relay-bounce
	// mechanism: any probe that looks sufficiently better wins.
	consider := func(relay cluster.HostID, rtt time.Duration) {
		better := float64(rtt) < float64(active.lastRTT)*(1-c.cfg.SwitchMargin)
		if active.relay == relay {
			active.lastRTT = rtt
			return
		}
		if better {
			active = pathState{relay: relay, lastRTT: rtt}
			lastSwitch = clock.Now()
			record(EventSwitch, relay, rtt, 0)
		}
	}

	probeOne := func(relay cluster.HostID) {
		if relay != caller && relay != callee && !probed[relay] {
			probed[relay] = true
			probedList = append(probedList, relay)
			if rtt, ok := c.measurePath(caller, callee, relay); ok {
				record(EventProbe, relay, rtt, 0)
				consider(relay, rtt)
			}
		}
	}

	// Call start: measure direct, then the initial supernode burst.
	if rtt, ok := c.measurePath(caller, callee, -1); ok {
		record(EventProbe, -1, rtt, 0)
		if rtt < directThreshold {
			active = pathState{relay: -1, lastRTT: rtt}
			record(EventSwitch, -1, rtt, 0)
		} else {
			active.lastRTT = rtt // direct is the fallback reference
		}
	}
	for i := 0; i < c.cfg.InitialBurst && i < len(c.supernodes); i++ {
		probeOne(c.supernodes[c.rng.Intn(len(c.supernodes))])
	}

	// Background probing rounds plus re-measurement of the active path.
	var round func()
	round = func() {
		roundNo++
		stable := clock.Now()-lastSwitch > stableAfter
		if !stable || roundNo%stableProbeEvery == 0 {
			for i := 0; i < probesPerRound; i++ {
				probeOne(c.supernodes[c.rng.Intn(len(c.supernodes))])
			}
		}
		// Re-measure the active path; quality may drift with jitter.
		if rtt, ok := c.measurePath(caller, callee, active.relay); ok {
			record(EventProbe, active.relay, rtt, 0)
			active.lastRTT = rtt
			// Revisit one previously probed alternative, round-robin —
			// Skype re-checks candidates lazily during the call.
			if n := len(probedList); n > 0 {
				r := probedList[revisit%n]
				revisit++
				if r != active.relay {
					if alt, ok := c.measurePath(caller, callee, r); ok {
						record(EventProbe, r, alt, 0)
						consider(r, alt)
					}
				}
			}
		}
		if clock.Now()+c.cfg.ProbeInterval < c.cfg.CallDuration {
			clock.After(c.cfg.ProbeInterval, round)
		}
	}
	clock.After(c.cfg.ProbeInterval, round)

	// Voice packets: one batch per second on whatever path is active.
	var pump func()
	pump = func() {
		record(EventPacket, active.relay, active.lastRTT, packetsPerSecond)
		if clock.Now()+time.Second < c.cfg.CallDuration {
			clock.After(time.Second, pump)
		}
	}
	clock.After(time.Second, pump)

	clock.Run()
	return tr, nil
}
