package udp

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"asap/internal/transport"
)

// refRx is the receiver accounting as it was before the ring bitmap: a
// map of heard sequence numbers, swept end to end on every packet once
// it had grown past the window. It stays here as the reference the
// bitmap is differentially tested against.
//
// Two of its edges are deliberately outside the differential streams,
// because there the map's answer was an accident of how full it was:
// a repeat from more than a window back (remembered only while the map
// held fewer than rxDedupWindow entries), and its `s+rxDedupWindow <
// highestSeq` sweep, which wraps for s within a window of 2^32 and then
// forgets what it just heard. The bitmap remembers exactly the window.
type refRx struct {
	started     bool
	highestSeq  uint32
	packets     int64
	bytes       int64
	lost        int64
	reordered   int64
	duplicates  int64
	lastTransit time.Duration
	jitter      time.Duration
	seen        map[uint32]bool
}

func (r *refRx) account(p Packet, arrival time.Duration) {
	if r.seen == nil {
		r.seen = make(map[uint32]bool, rxDedupWindow)
	}
	if r.started && p.Seq <= r.highestSeq && r.seen[p.Seq] {
		r.duplicates++
		return
	}
	transit := arrival - p.TS
	if r.started {
		d := transit - r.lastTransit
		if d < 0 {
			d = -d
		}
		r.jitter += (d - r.jitter) / 16
	}
	r.lastTransit = transit
	switch {
	case !r.started:
		r.started = true
		r.highestSeq = p.Seq
	case p.Seq == r.highestSeq+1:
		r.highestSeq = p.Seq
	case p.Seq > r.highestSeq:
		r.lost += int64(p.Seq - r.highestSeq - 1)
		r.highestSeq = p.Seq
	default:
		r.reordered++
		if r.lost > 0 {
			r.lost--
		}
	}
	r.seen[p.Seq] = true
	if len(r.seen) > rxDedupWindow {
		for s := range r.seen {
			if s+rxDedupWindow < r.highestSeq {
				delete(r.seen, s)
			}
		}
	}
	r.packets++
	r.bytes += int64(len(p.Payload))
}

func (r *refRx) stats() RxStats {
	return RxStats{Packets: r.packets, Bytes: r.bytes, Lost: r.lost,
		Reordered: r.reordered, Duplicates: r.duplicates, Jitter: r.jitter}
}

// TestRxBitmapMatchesMap feeds the bitmap and the map the same seeded
// arrival streams — in-order runs, gaps, duplicates and late arrivals of
// anything inside the window, and forward jumps past it — and requires
// identical RxStats after every packet.
func TestRxBitmapMatchesMap(t *testing.T) {
	// The streams keep late traffic strictly inside the window both
	// implementations cover: the map also remembered seq highest-512.
	const reach = rxDedupWindow - 1
	for _, tc := range []struct {
		name  string
		start uint32
		steps int
	}{
		{"from-one", 1, 20_000},
		{"from-zero", 0, 20_000},
		{"mid-range", 1 << 31, 20_000},
		// Stops short of 2^32 (see the loop): the step across the wrap
		// itself is TestRxBitmapAcrossWrap's.
		{"high-range", 1<<32 - 300_000, 20_000},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var bm rxState
			var ref refRx
			seq := tc.start
			low := tc.start // nothing below the first packet ever existed
			now := time.Duration(0)
			feed := func(step int, s uint32) {
				now += time.Duration(rng.Intn(30)) * time.Millisecond
				p := Packet{Type: PTVoice, Seq: s, TS: now - time.Duration(rng.Intn(40))*time.Millisecond,
					Payload: make([]byte, rng.Intn(200))}
				bm.account(p, now)
				ref.account(p, now)
				if got, want := bm.stats(), ref.stats(); got != want {
					t.Fatalf("%s seed %d step %d seq %d:\n bitmap %+v\n    map %+v", tc.name, seed, step, s, got, want)
				}
			}
			for step := 0; step < tc.steps && seq < 1<<32-8*rxDedupWindow; step++ {
				switch x := rng.Intn(100); {
				case x < 60: // next in sequence
					feed(step, seq)
					seq++
				case x < 75: // small gap: loss
					seq += uint32(1 + rng.Intn(5))
					feed(step, seq)
					seq++
				case x < 95: // duplicate or late arrival from inside the window
					if seq == low {
						continue
					}
					back := uint32(1 + rng.Intn(reach))
					if back > seq-low {
						back = seq - low
					}
					feed(step, seq-back)
				case x < 98: // long gap, still inside the window
					seq += uint32(rng.Intn(reach))
					feed(step, seq)
					seq++
				default: // jump past the window: everything before is forgotten
					seq += rxDedupWindow + uint32(rng.Intn(3*rxDedupWindow))
					low = seq
					feed(step, seq)
					seq++
				}
			}
		}
	}
}

// TestRxBitmapAcrossWrap: the map version stepped highestSeq from
// 2^32-1 to 0 by its seq == highest+1 case; the bitmap must take the
// same step, and its slide loop must terminate there.
func TestRxBitmapAcrossWrap(t *testing.T) {
	var bm rxState
	var ref refRx
	// Fewer packets than the window, so the map's sweep never runs and
	// it stays a valid reference right up to the wrap.
	seq := uint32(1<<32 - 200)
	for i := 0; i < 400; i++ {
		now := time.Duration(i) * 20 * time.Millisecond
		for k, s := range []uint32{seq, seq, seq - 3} { // the packet, its duplicate, an older duplicate
			if k == 2 && (i < 3 || seq < 3) {
				// Nothing that old exists yet — or it is on the far side
				// of the wrap, where plain uint32 order calls it the future.
				continue
			}
			p := Packet{Type: PTVoice, Seq: s, TS: now, Payload: make([]byte, 20)}
			bm.account(p, now)
			ref.account(p, now)
			if got, want := bm.stats(), ref.stats(); got != want {
				t.Fatalf("packet %d seq %d:\n bitmap %+v\n    map %+v", i, s, got, want)
			}
		}
		seq++ // wraps to 0 at i == 200
	}
	if bm.highestSeq != 199 {
		t.Fatalf("highestSeq = %d after crossing the wrap, want 199", bm.highestSeq)
	}
	if st := bm.stats(); st.Packets != 400 || st.Lost != 0 || st.Reordered != 0 {
		t.Fatalf("clean stream across the wrap miscounted: %+v", st)
	}
}

// TestBufPoolAllocs pins the pooled encode buffer at zero allocations:
// putBuf used to box a slice header on every call.
func TestBufPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := Packet{Type: PTVoice, Seq: 1, SSRC: 2, Payload: make([]byte, 160)}
	n := testing.AllocsPerRun(1000, func() {
		buf := getBuf()
		buf = p.AppendTo(buf)
		putBuf(buf)
	})
	if n != 0 {
		t.Fatalf("getBuf → AppendTo → putBuf: %.2f allocs, want 0", n)
	}
	// A buffer append had to grow is not the pool's array any more.
	big := Packet{Type: PTVoice, Payload: make([]byte, 2*bufCap)}
	buf := big.AppendTo(getBuf())
	putBuf(buf)
	if got := getBuf(); cap(got) != bufCap {
		t.Fatalf("pool handed out a %d-byte buffer, want %d", cap(got), bufCap)
	}
}

// TestBufAllocsSurviveGC: a getBuf/putBuf pair allocates nothing across
// garbage collections. A sync.Pool is emptied by two collections in a
// row (one moves it to the victim cache, the next drops it), so the
// first getBuf after them allocated a fresh 2 KB array; the benchmark
// collects before every repetition.
func TestBufAllocsSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	putBuf(getBuf())
	var before, after runtime.MemStats
	var n uint64
	for i := 0; i < 20; i++ {
		runtime.GC() // collections allocate themselves: count outside them
		runtime.GC()
		runtime.ReadMemStats(&before)
		putBuf(getBuf())
		runtime.ReadMemStats(&after)
		n += after.Mallocs - before.Mallocs
	}
	if n != 0 {
		t.Fatalf("getBuf → putBuf after two collections: %d allocs in 20 pairs, want 0", n)
	}
}

// TestVoicePacketAllocs is the end of ROADMAP's "voice packet at ≤ 2
// allocs": one packet on the direct path — SendVoice, the Mem datagram
// plane's delivery task on the virtual clock, Flow.dispatch, receiver
// accounting, the voice handler — allocates nothing in steady state.
func TestVoicePacketAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := newWorld(t, 10*time.Millisecond)
	ep := w.endpoint(t)
	a, err := ep.Open("alice:5000", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ep.Open("bob:5000", 7)
	if err != nil {
		t.Fatal(err)
	}
	heard := 0
	b.SetVoiceHandler(func(Packet, transport.Addr) { heard++ })
	payload := make([]byte, 160)
	var allocs float64
	var sendErr error
	w.clk.RunTask(func() {
		w.clk.Join(2,
			func() { _, sendErr = a.Establish("bob:5000", "", true) },
			func() { _, _ = b.Establish("alice:5000", "", false) },
		)
		if sendErr != nil {
			return
		}
		one := func() {
			if err := a.SendVoice(payload); err != nil {
				sendErr = err
			}
			w.clk.Sleep(20 * time.Millisecond) // the delivery runs while the sender is parked
		}
		// Warm the worker, the event free list, the wheel's spare slabs
		// and the buffer pools.
		for i := 0; i < 100; i++ {
			one()
		}
		allocs = testing.AllocsPerRun(1000, one)
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if a.Path() != PathDirect || heard < 1100 {
		t.Fatalf("path %v, heard %d of 1101 packets", a.Path(), heard)
	}
	if allocs != 0 {
		t.Fatalf("SendVoice → Mem delivery → dispatch: %.2f allocs per packet, want 0", allocs)
	}
}
