package sim

import (
	"cmp"
	"container/heap"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// wheelStore is a two-level hierarchical timer wheel with a calendar-heap
// overflow — the Clock's default event store, built for deployments with
// millions of pending events where a single binary heap's O(log n) per
// operation becomes the scheduler bottleneck.
//
// Layout. Virtual time is quantized into ticks of 2^tickShift ns
// (~1 µs). Level 0 is an array of 4096 per-tick buckets covering one
// aligned 4096-tick segment (~4.2 ms); level 1 is an array of 4096
// per-segment buckets covering one aligned window of 4096 segments
// (~17 s). Events beyond the level-1 window land in an overflow min-heap
// ordered by (at, id). Occupancy bitmaps (64 words per level) make
// "next non-empty slot" a handful of word scans.
//
// Because both levels are anchored to absolute aligned windows — not to
// a moving base — every tick maps to exactly one slot and slots never
// mix events from different segments, which sidesteps the classic
// cascading-wheel ambiguities. When level 0 drains, the next occupied
// level-1 slot is flushed down; when both drain, the overflow heap
// re-seeds the windows at its minimum. The rare event that lands behind
// the current window (after RunUntil fast-forwards it: 2.6 % of
// scale_sim's pushes, none under RunTask) stays in the overflow heap and
// wins pops directly by (at, id), so the total order holds unconditionally.
//
// Ordering. Within a per-tick bucket events are sorted by (at, id) on
// first drain; later same-tick arrivals (AfterFunc chains scheduled by a
// running event) binary-insert into the undrained tail. Across buckets,
// segments, windows and the overflow heap the scan order is ascending
// time, so pops reproduce the reference heap's (time, schedule-id)
// sequence exactly — verified event-for-event by wheel_test.go.
const (
	wheelTickShift = 10 // 1 tick = 1024 ns
	wheelSlotBits  = 12 // 4096 slots per level
	wheelSlots     = 1 << wheelSlotBits
	wheelSlotMask  = wheelSlots - 1
	wheelMapWords  = wheelSlots / 64
)

// Slabs. A slot's events live in a backing array (a slab) that the slot
// gives back to the store's spare list when it drains and the next slot
// to fill takes over, so the steady trickle of a running deployment is
// filed without allocating however its timestamps walk across the 8192
// slots. Both bounds keep a burst from becoming a permanent reserve: a
// slab that grew past wheelKeepCap goes to the collector, and so does
// one more than wheelSpareSlabs — enough for every bucket of a level-0
// segment to be occupied at once, which a population-scale run is.
const (
	wheelKeepCap    = 256
	wheelSpareSlabs = wheelSlots
)

// wheelBucket is one level-0 per-tick bucket. Events append unsorted;
// the first drain sorts the bucket by (at, id) and later same-tick
// pushes keep the undrained tail ordered.
type wheelBucket struct {
	evs    []*event
	head   int
	sorted bool
}

type wheelStore struct {
	size int // events stored, including canceled ones not yet discarded

	l0    [wheelSlots]wheelBucket
	l0map [wheelMapWords]uint64
	l0seg int64 // segment (tick >> wheelSlotBits) the level-0 array covers
	l0pos int   // scan cursor: no occupied level-0 slot lies below it

	l1    [wheelSlots][]*event
	l1map [wheelMapWords]uint64
	l1win int64 // window (tick >> 2*wheelSlotBits) the level-1 array covers
	l1pos int   // scan cursor for level 1

	far eventQueue // (at, id) min-heap of events beyond the level-1 window

	spare FreeList[[]*event] // emptied slabs of drained slots, at most wheelSpareSlabs
}

// takeSlab returns an empty slab for a slot that is filling, nil (append
// allocates) when none is spare.
func (w *wheelStore) takeSlab() []*event {
	evs, _ := w.spare.Get()
	return evs
}

// giveSlab takes back the slab of a drained slot. Every element must
// already be nil: a fired event must not stay reachable from the wheel.
func (w *wheelStore) giveSlab(evs []*event) {
	if cap(evs) == 0 || cap(evs) > wheelKeepCap {
		return
	}
	w.spare.Put(evs[:0], wheelSpareSlabs)
}

// drained resets a level-0 bucket whose last event was just consumed.
func (w *wheelStore) drained(b *wheelBucket) {
	w.giveSlab(b.evs)
	*b = wheelBucket{}
}

func newWheelStore() *wheelStore { return &wheelStore{} }

func wheelTick(at time.Duration) int64 { return int64(at) >> wheelTickShift }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// eventCompare is eventLess as a three-way comparison. Ids are unique,
// so the order is total and any correct sort yields the same sequence.
func eventCompare(a, b *event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

func (w *wheelStore) push(e *event) {
	w.size++
	w.place(e)
}

// place files an event into the level that covers its tick, or the
// overflow heap. Events behind the current windows (only possible via
// RunUntil window fast-forwards) also go to the overflow heap, where the
// pop-time comparison keeps them ordered.
func (w *wheelStore) place(e *event) {
	t := wheelTick(e.at)
	switch {
	case t>>wheelSlotBits == w.l0seg:
		s := int(t & wheelSlotMask)
		b := &w.l0[s]
		if b.sorted && b.head < len(b.evs) {
			// Insert into the undrained tail, keeping it ordered.
			tail := b.evs[b.head:]
			i := sort.Search(len(tail), func(i int) bool { return eventLess(e, tail[i]) })
			b.evs = append(b.evs, nil)
			copy(b.evs[b.head+i+1:], b.evs[b.head+i:])
			b.evs[b.head+i] = e
		} else {
			if b.evs == nil {
				b.evs = w.takeSlab()
			}
			b.evs = append(b.evs, e)
		}
		w.l0map[s>>6] |= 1 << uint(s&63)
		if s < w.l0pos {
			w.l0pos = s
		}
	case t>>(2*wheelSlotBits) == w.l1win && t>>wheelSlotBits > w.l0seg:
		s := int((t >> wheelSlotBits) & wheelSlotMask)
		if w.l1[s] == nil {
			w.l1[s] = w.takeSlab()
		}
		w.l1[s] = append(w.l1[s], e)
		w.l1map[s>>6] |= 1 << uint(s&63)
		if s < w.l1pos {
			w.l1pos = s
		}
	default:
		heap.Push(&w.far, e)
	}
}

// scanBitmap returns the first set bit at or after from, or -1.
func scanBitmap(bm *[wheelMapWords]uint64, from int) int {
	if from >= wheelSlots {
		return -1
	}
	word, bit := from>>6, uint(from&63)
	if m := bm[word] >> bit << bit; m != 0 {
		return word<<6 + bits.TrailingZeros64(m)
	}
	for i := word + 1; i < wheelMapWords; i++ {
		if bm[i] != 0 {
			return i<<6 + bits.TrailingZeros64(bm[i])
		}
	}
	return -1
}

// findMin locates the earliest live event without removing it. It
// advances windows (flushing level 1 down, re-seeding from the overflow
// heap) and lazily discards canceled events as it goes. The returned
// bucket is nil when the winner lives in the overflow heap.
func (w *wheelStore) findMin() (*event, *wheelBucket) {
	for {
		if w.size == 0 {
			return nil, nil
		}
		// Drop canceled overflow heads so far[0] is always comparable.
		for len(w.far) > 0 && w.far[0].canceled {
			w.popFar()
			w.size--
		}
		if s := scanBitmap(&w.l0map, w.l0pos); s >= 0 {
			w.l0pos = s
			b := &w.l0[s]
			if !b.sorted {
				slices.SortFunc(b.evs, eventCompare)
				b.sorted = true
			}
			for b.head < len(b.evs) && b.evs[b.head].canceled {
				b.evs[b.head] = nil
				b.head++
				w.size--
			}
			if b.head == len(b.evs) {
				w.drained(b)
				w.l0map[s>>6] &^= 1 << uint(s&63)
				continue
			}
			e := b.evs[b.head]
			if len(w.far) > 0 && eventLess(w.far[0], e) {
				return w.far[0], nil
			}
			return e, b
		}
		if s := scanBitmap(&w.l1map, w.l1pos); s >= 0 {
			// Flush the next occupied level-1 slot into level 0.
			w.l1pos = s
			w.l0seg = w.l1win<<wheelSlotBits | int64(s)
			w.l0pos = 0
			evs := w.l1[s]
			w.l1[s] = nil
			w.l1map[s>>6] &^= 1 << uint(s&63)
			for i, e := range evs {
				evs[i] = nil
				w.place(e)
			}
			w.giveSlab(evs)
			continue
		}
		if len(w.far) == 0 {
			return nil, nil // only canceled events remained; size hits 0 above
		}
		// Both levels drained: re-seed the windows at the overflow
		// minimum and pull everything that now fits.
		t := wheelTick(w.far[0].at)
		w.l1win = t >> (2 * wheelSlotBits)
		w.l0seg = t >> wheelSlotBits
		w.l0pos, w.l1pos = 0, 0
		for len(w.far) > 0 {
			e := w.far[0]
			et := wheelTick(e.at)
			if et>>(2*wheelSlotBits) != w.l1win {
				break
			}
			w.popFar()
			w.place(e)
		}
	}
}

// popFar removes the overflow heap's minimum, dropping a burst-sized
// backing array once the heap is empty.
func (w *wheelStore) popFar() {
	heap.Pop(&w.far)
	if len(w.far) == 0 && cap(w.far) > wheelKeepCap {
		w.far = nil
	}
}

func (w *wheelStore) pop() *event {
	for {
		e, b := w.findMin()
		if e == nil {
			return nil
		}
		if b == nil {
			w.popFar()
		} else {
			b.evs[b.head] = nil // a fired event must not stay reachable from the wheel
			b.head++
			if b.head == len(b.evs) {
				w.drained(b)
				s := w.l0pos
				w.l0map[s>>6] &^= 1 << uint(s&63)
			}
		}
		w.size--
		if e.canceled {
			continue
		}
		return e
	}
}

func (w *wheelStore) next() (time.Duration, bool) {
	e, _ := w.findMin()
	if e == nil {
		return 0, false
	}
	return e.at, true
}
