package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"asap/internal/sim"
)

// echoMem builds a Mem with a trivial echo handler bound at each addr.
func echoMem(t *testing.T, addrs ...Addr) *Mem {
	t.Helper()
	mem := NewMem()
	for _, a := range addrs {
		if _, err := mem.Serve(a, func(from Addr, req *Message) (*Message, error) {
			return &Message{Type: MsgPong, SentAt: req.SentAt}, nil
		}); err != nil {
			t.Fatalf("Serve %s: %v", a, err)
		}
	}
	return mem
}

func TestChaosPassthrough(t *testing.T) {
	c := NewChaos(echoMem(t, "a"), 1)
	resp, err := c.Call("a", &Message{Type: MsgPing, From: "x"})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Type != MsgPong {
		t.Fatalf("resp.Type = %d, want MsgPong", resp.Type)
	}
	if got := c.Stats(); got.Calls != 1 || got.Faults() != 0 {
		t.Fatalf("stats = %+v, want 1 call, 0 faults", got)
	}
}

func TestChaosDropProbabilityExtremes(t *testing.T) {
	c := NewChaos(echoMem(t, "a"), 1)
	for i := 0; i < 50; i++ {
		if _, err := c.Call("a", &Message{Type: MsgPing}); err != nil {
			t.Fatalf("drop=0 call %d failed: %v", i, err)
		}
	}
	c.DropTo("a", 0.999999999)
	failed := 0
	for i := 0; i < 50; i++ {
		if _, err := c.Call("a", &Message{Type: MsgPing}); err != nil {
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("drop error %v does not wrap ErrUnreachable", err)
			}
			failed++
		}
	}
	if failed < 49 {
		t.Fatalf("p~1 dropped only %d/50", failed)
	}
}

func TestChaosSeedDeterminism(t *testing.T) {
	outcomes := func(seed int64) []bool {
		c := NewChaos(echoMem(t, "a"), seed)
		c.DropDefault(0.5)
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := c.Call("a", &Message{Type: MsgPing})
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if !same {
		t.Fatal("same seed produced different drop sequences")
	}
	c := outcomes(7)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical 64-call drop sequences")
	}
}

func TestChaosBlackholeAndHeal(t *testing.T) {
	c := NewChaos(echoMem(t, "a", "b"), 1)
	c.Blackhole("a")
	if _, err := c.Call("a", &Message{Type: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("blackholed call = %v, want ErrUnreachable", err)
	}
	if _, err := c.Call("b", &Message{Type: MsgPing}); err != nil {
		t.Fatalf("unfaulted addr failed: %v", err)
	}
	c.Heal("a")
	if _, err := c.Call("a", &Message{Type: MsgPing}); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
	if got := c.Stats().Blackholed; got != 1 {
		t.Fatalf("Blackholed = %d, want 1", got)
	}
}

func TestChaosFailNext(t *testing.T) {
	c := NewChaos(echoMem(t, "a"), 1)
	c.FailNext("a", 2)
	for i := 0; i < 2; i++ {
		if _, err := c.Call("a", &Message{Type: MsgPing}); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("FailNext call %d = %v, want ErrUnreachable", i, err)
		}
	}
	if _, err := c.Call("a", &Message{Type: MsgPing}); err != nil {
		t.Fatalf("call after FailNext budget drained: %v", err)
	}
	if got := c.Stats().Failed; got != 2 {
		t.Fatalf("Failed = %d, want 2", got)
	}
}

func TestChaosOutageWindow(t *testing.T) {
	// The outage window is anchored to the injected scheduler: no real
	// sleeping, the window closes when virtual time passes its end.
	clk := sim.NewClock()
	c := NewChaos(echoMem(t, "a"), 1)
	c.Sched = clk
	c.OutageFor("a", 60*time.Millisecond)
	if _, err := c.Call("a", &Message{Type: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("in-window call = %v, want ErrUnreachable", err)
	}
	clk.RunUntil(59 * time.Millisecond)
	if _, err := c.Call("a", &Message{Type: MsgPing}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call just inside window = %v, want ErrUnreachable", err)
	}
	clk.RunUntil(60 * time.Millisecond)
	if _, err := c.Call("a", &Message{Type: MsgPing}); err != nil {
		t.Fatalf("post-window call failed: %v", err)
	}
	if got := c.Stats().Outaged; got != 2 {
		t.Fatalf("Outaged = %d, want 2", got)
	}
}

func TestChaosAddedLatency(t *testing.T) {
	c := NewChaos(echoMem(t, "a"), 1)
	c.LatencyTo("a", 30*time.Millisecond)
	start := time.Now()
	if _, err := c.Call("a", &Message{Type: MsgPing}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := time.Since(start); got < 30*time.Millisecond {
		t.Fatalf("latency fault not applied: call took %v", got)
	}
}

// TestChaosLatencyChargesBudget: injected latency is spent from the
// request's Timeout. A delay that uses the whole budget fails the call
// at the deadline; a shorter one leaves the inner transport only the
// rest, so a reply that fits the full budget but not the rest is late.
// The caller's request keeps its budget either way.
func TestChaosLatencyChargesBudget(t *testing.T) {
	clk := sim.NewClock()
	mem := echoMem(t, "a")
	mem.Sched = clk
	mem.Latency = func(from, to Addr) time.Duration { return 3 * time.Millisecond }
	c := NewChaos(mem, 1)
	c.Sched = clk
	for _, tc := range []struct {
		extra, budget, doneAt time.Duration
		expired               bool
	}{
		{extra: 4 * time.Millisecond, budget: 4 * time.Millisecond, doneAt: 4 * time.Millisecond, expired: true},
		{extra: 2 * time.Millisecond, budget: 7 * time.Millisecond, doneAt: 7 * time.Millisecond, expired: true},
		{extra: 2 * time.Millisecond, budget: 9 * time.Millisecond, doneAt: 8 * time.Millisecond, expired: false},
	} {
		c.LatencyTo("a", tc.extra)
		clk.RunTask(func() {
			start := clk.Now()
			req := &Message{Type: MsgPing, From: "x", Timeout: tc.budget}
			_, err := c.Call("a", req)
			if got := clk.Now() - start; got != tc.doneAt || errors.Is(err, context.DeadlineExceeded) != tc.expired {
				t.Errorf("latency %v, budget %v: returned after %v with err %v, want %v (deadline %v)", tc.extra, tc.budget, got, err, tc.doneAt, tc.expired)
			}
			if req.Timeout != tc.budget {
				t.Errorf("the request's budget reads %v after the call, want %v", req.Timeout, tc.budget)
			}
		})
	}
}

func TestChaosApplySpec(t *testing.T) {
	c := NewChaos(echoMem(t, "a", "b"), 1)
	err := c.Apply("drop=0.25, lat=1ms, drop@a=0.5, lat@a=2ms, blackhole@b, fail@a=3, outage@a=250ms")
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	c.mu.Lock()
	switch {
	case c.dropAll != 0.25,
		c.latAll != time.Millisecond,
		c.drop["a"] != 0.5,
		c.lat["a"] != 2*time.Millisecond,
		!c.black["b"],
		c.failNext["a"] != 3,
		c.outage["a"] <= sim.OrWall(c.Sched).Now():
		c.mu.Unlock()
		t.Fatalf("Apply left unexpected fault tables: %+v", c)
	}
	c.mu.Unlock()

	for _, bad := range []string{
		"drop=1.5", "drop=x", "drop", "lat=-1ms", "lat=zzz",
		"blackhole", "blackhole@a=1", "fail@a=0", "fail@a=x", "fail=3",
		"outage@a=0s", "outage=1s", "explode@a",
	} {
		if err := NewChaos(NewMem(), 1).Apply(bad); err == nil {
			t.Errorf("Apply(%q) accepted an invalid spec", bad)
		}
	}
}

// TestChaosApplyRejectsNaNAndEmptyAddr covers specs that parse but name
// nothing real: a NaN probability is neither below 0 nor at least 1, so
// a plain range check passed it and the fault silently injected nothing;
// an empty address after @ keys a table entry no send ever matches.
func TestChaosApplyRejectsNaNAndEmptyAddr(t *testing.T) {
	for _, bad := range []string{
		"drop=NaN", "drop=nan", "drop@a=NaN", "drop@=0.5", "blackhole@",
		"lat@=1ms", "fail@=2", "outage@=1s",
	} {
		if err := NewChaos(NewMem(), 1).Apply(bad); err == nil {
			t.Errorf("Apply(%q) accepted an invalid spec", bad)
		}
	}
}

func TestChaosApplyEmptyTokensOK(t *testing.T) {
	if err := NewChaos(NewMem(), 1).Apply(" , drop=0.1, "); err != nil {
		t.Fatalf("Apply with empty tokens: %v", err)
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Fatal("nil is not transient")
	}
	if !IsTransient(ErrUnreachable) {
		t.Fatal("ErrUnreachable must be transient")
	}
	if IsTransient(errors.New("remote rejected")) {
		t.Fatal("plain handler errors are not transient")
	}
}
