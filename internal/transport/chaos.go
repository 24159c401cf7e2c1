package transport

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"asap/internal/sim"
)

// Chaos decorates another Transport with deterministic, seedable fault
// injection: per-destination drop probability, added latency, one-shot
// and permanent blackholes, and timed outage windows. Tests drive it
// programmatically (the methods below are the fault-script API); the
// daemon drives it from the -chaos flag via Apply. All faults are applied
// on the caller side of Call, so a blackholed address is unreachable from
// every node sharing the wrapper — the closest in-process analogue of a
// crashed or partitioned host.
//
// Chaos is safe for concurrent use. Outcomes are a deterministic function
// of the seed and the sequence of Call invocations; concurrent callers
// interleave that sequence, so bitwise reproducibility needs a
// single-threaded workload (the seeded soak tests are written that way).
type Chaos struct {
	inner Transport

	// Sched anchors outage windows and added latency. Nil means real
	// time; simulations inject their *sim.Clock so a -chaos spec produces
	// the same fault timeline regardless of host speed.
	Sched sim.Scheduler

	mu       sync.Mutex
	rng      *rand.Rand
	dropAll  float64
	drop     map[Addr]float64
	latAll   time.Duration
	lat      map[Addr]time.Duration
	black    map[Addr]bool
	failNext map[Addr]int
	outage   map[Addr]time.Duration // scheduler offset at which the outage ends
	stats    ChaosStats
}

func (c *Chaos) sched() sim.Scheduler {
	if c.Sched != nil {
		return c.Sched
	}
	return wallFallback
}

// ChaosStats counts injected faults across both planes: the fault
// counters (Dropped, Blackholed, Failed, Outaged) cover calls and
// datagrams alike, since both consult the same tables.
type ChaosStats struct {
	// Calls is the total number of Call invocations seen.
	Calls int
	// Packets is the total number of datagram WriteTo invocations seen
	// on networks decorated via PacketNetwork.
	Packets int
	// Dropped counts probabilistic drops.
	Dropped int
	// Blackholed counts calls rejected by permanent blackholes.
	Blackholed int
	// Failed counts calls rejected by FailNext budgets.
	Failed int
	// Outaged counts calls rejected inside an outage window.
	Outaged int
}

// Faults returns the total number of injected failures.
func (s ChaosStats) Faults() int { return s.Dropped + s.Blackholed + s.Failed + s.Outaged }

// NewChaos wraps inner with a fault injector seeded with seed.
func NewChaos(inner Transport, seed int64) *Chaos {
	return &Chaos{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		drop:     make(map[Addr]float64),
		lat:      make(map[Addr]time.Duration),
		black:    make(map[Addr]bool),
		failNext: make(map[Addr]int),
		outage:   make(map[Addr]time.Duration),
	}
}

// Serve implements Transport by delegating to the wrapped transport.
// Inbound handling is never faulted: failures are injected on the send
// path only, which suffices because every exchange is a Call.
func (c *Chaos) Serve(addr Addr, h Handler) (Addr, error) { return c.inner.Serve(addr, h) }

// Close implements Transport.
func (c *Chaos) Close() error { return c.inner.Close() }

// The faults decide can report; the empty string means the send passes.
// Call quotes them in its errors.
const (
	chaosBlackhole = "blackhole"
	chaosOneShot   = "one-shot failure"
	chaosOutage    = "outage window"
	chaosDrop      = "drop"
)

// decide walks the fault tables for one send to `to` — blackhole, then
// fail budget, then outage window, then the seeded drop draw — and
// counts it, as a datagram when packet is set and as a call otherwise.
// It returns the fault that hit (or ""), the drop probability that
// applied, and for a send that passes the latency to add. Both planes
// go through here, so they consume one RNG stream in send order.
func (c *Chaos) decide(to Addr, packet bool) (fault string, p float64, extra time.Duration) {
	now := c.sched().Now()
	c.mu.Lock()
	if packet {
		c.stats.Packets++
	} else {
		c.stats.Calls++
	}
	switch {
	case c.black[to]:
		c.stats.Blackholed++
		fault = chaosBlackhole
	case c.failNext[to] > 0:
		c.failNext[to]--
		if c.failNext[to] == 0 {
			delete(c.failNext, to)
		}
		c.stats.Failed++
		fault = chaosOneShot
	case now < c.outage[to]:
		c.stats.Outaged++
		fault = chaosOutage
	default:
		var ok bool
		if p, ok = c.drop[to]; !ok {
			p = c.dropAll
		}
		if p > 0 && c.rng.Float64() < p {
			c.stats.Dropped++
			fault = chaosDrop
		} else if extra, ok = c.lat[to]; !ok {
			extra = c.latAll
		}
	}
	c.mu.Unlock()
	return fault, p, extra
}

// Call implements Transport: it consults the fault tables and either
// fails with ErrUnreachable, delays, or passes through to the inner
// transport.
func (c *Chaos) Call(to Addr, req *Message) (*Message, error) {
	fault, p, extra := c.decide(to, false)
	switch fault {
	case "":
	case chaosDrop:
		return nil, fmt.Errorf("%w: %s (chaos: drop p=%g)", ErrUnreachable, to, p)
	default:
		return nil, fmt.Errorf("%w: %s (chaos: %s)", ErrUnreachable, to, fault)
	}
	if extra > 0 {
		c.sched().Sleep(extra)
	}
	return c.inner.Call(to, req)
}

// DropDefault sets the drop probability applied to destinations without a
// per-destination override.
func (c *Chaos) DropDefault(p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropAll = p
}

// DropTo sets the drop probability for calls to addr.
func (c *Chaos) DropTo(addr Addr, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop[addr] = p
}

// LatencyDefault adds a fixed delay to every call without a
// per-destination override.
func (c *Chaos) LatencyDefault(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latAll = d
}

// LatencyTo adds a fixed delay to calls to addr.
func (c *Chaos) LatencyTo(addr Addr, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lat[addr] = d
}

// Blackhole makes addr permanently unreachable until Heal.
func (c *Chaos) Blackhole(addr Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.black[addr] = true
}

// Heal removes every fault targeting addr (blackhole, outage, one-shot
// budget, and per-destination drop/latency overrides).
func (c *Chaos) Heal(addr Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.black, addr)
	delete(c.failNext, addr)
	delete(c.outage, addr)
	delete(c.drop, addr)
	delete(c.lat, addr)
}

// FailNext makes the next n calls to addr fail, then heals. n == 1 is a
// one-shot blackhole.
func (c *Chaos) FailNext(addr Addr, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		delete(c.failNext, addr)
		return
	}
	c.failNext[addr] = n
}

// OutageFor makes addr unreachable for the next d of scheduler time —
// the bootstrap-outage-window fault of the churn experiments. Under a
// virtual clock the window closes at a deterministic virtual instant.
func (c *Chaos) OutageFor(addr Addr, d time.Duration) {
	end := c.sched().Now() + d
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outage[addr] = end
}

// Stats returns a snapshot of the fault counters.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Apply parses and applies a comma-separated fault spec — the -chaos flag
// grammar:
//
//	drop=P            default drop probability in [0,1)
//	drop@ADDR=P       per-destination drop probability
//	lat=D             default added latency (Go duration)
//	lat@ADDR=D        per-destination added latency
//	blackhole@ADDR    permanent blackhole
//	fail@ADDR=N       next N calls to ADDR fail
//	outage@ADDR=D     ADDR unreachable for the next D of scheduler time
//
// e.g. "drop=0.05,lat=20ms,blackhole@127.0.0.1:7001,outage@127.0.0.1:7000=5s".
func (c *Chaos) Apply(spec string) error {
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, hasVal := strings.Cut(tok, "=")
		kind, addr, hasAddr := strings.Cut(key, "@")
		switch kind {
		case "drop":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !hasVal || p < 0 || p >= 1 {
				return fmt.Errorf("transport: chaos spec %q: want drop probability in [0,1)", tok)
			}
			if hasAddr {
				c.DropTo(Addr(addr), p)
			} else {
				c.DropDefault(p)
			}
		case "lat":
			d, err := time.ParseDuration(val)
			if err != nil || !hasVal || d < 0 {
				return fmt.Errorf("transport: chaos spec %q: want a non-negative duration", tok)
			}
			if hasAddr {
				c.LatencyTo(Addr(addr), d)
			} else {
				c.LatencyDefault(d)
			}
		case "blackhole":
			if !hasAddr || hasVal {
				return fmt.Errorf("transport: chaos spec %q: want blackhole@ADDR", tok)
			}
			c.Blackhole(Addr(addr))
		case "fail":
			n, err := strconv.Atoi(val)
			if err != nil || !hasVal || !hasAddr || n < 1 {
				return fmt.Errorf("transport: chaos spec %q: want fail@ADDR=N with N >= 1", tok)
			}
			c.FailNext(Addr(addr), n)
		case "outage":
			d, err := time.ParseDuration(val)
			if err != nil || !hasVal || !hasAddr || d <= 0 {
				return fmt.Errorf("transport: chaos spec %q: want outage@ADDR=D with D > 0", tok)
			}
			c.OutageFor(Addr(addr), d)
		default:
			return fmt.Errorf("transport: chaos spec %q: unknown fault %q", tok, kind)
		}
	}
	return nil
}

var _ Transport = (*Chaos)(nil)
