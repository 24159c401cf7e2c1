package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"asap/internal/sim"
)

type rankItem struct {
	est time.Duration
	seq int // staged position, to see stability
}

func rankItemEst(e rankItem) time.Duration { return e.est }

// TestRankByEstMatchesStableSort holds rankByEst to slices.SortStableFunc
// on the estimate: on random inputs of 0 to 10,000 entries with heavy
// ties, all estimates equal, zeros, negatives, estimates of 2^32 and more
// (five to eight passes), and spreads needing an odd and an even number
// of passes, the ranked slice is the stable sort's, entry for entry.
func TestRankByEstMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(34)
	passes := map[int]bool{}
	var buf []rankItem
	type rankCase struct {
		name string
		gen  func() time.Duration
	}
	cases := []rankCase{
		{"heavy ties", func() time.Duration { return time.Duration(rng.Intn(8)) * time.Millisecond }},
		{"all equal", func() time.Duration { return 137 * time.Millisecond }},
		{"zeros", func() time.Duration { return time.Duration(rng.Intn(2)*rng.Intn(300)) * time.Millisecond }},
		{"under latT", func() time.Duration { return time.Duration(rng.Int63() % int64(300*time.Millisecond)) }},
		{"2^32 and up", func() time.Duration { return 1<<32 + time.Duration(rng.Int63()%(1<<40)) }},
		{"negatives", func() time.Duration { return time.Duration(rng.Int63()%(1<<20) - 1<<19) }},
	}
	for k := 1; k <= 8; k++ {
		span := int64(1) << (8*k - 1) // spreads of k bytes, full range at k = 8
		cases = append(cases, rankCase{fmt.Sprintf("%d-byte spread", k), func() time.Duration { return time.Duration(rng.Int63() % span) }})
	}
	for _, tc := range cases {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 10000} {
			stage := make([]rankItem, n)
			for i := range stage {
				stage[i] = rankItem{est: tc.gen(), seq: i}
			}
			if n > 0 {
				lo, hi := stage[0].est, stage[0].est
				for _, e := range stage {
					lo, hi = min(lo, e.est), max(hi, e.est)
				}
				passes[(bits.Len64(uint64(hi)-uint64(lo))+7)/8] = true
			}
			orig := slices.Clone(stage)
			want := slices.Clone(stage)
			slices.SortStableFunc(want, func(a, b rankItem) int {
				switch {
				case a.est < b.est:
					return -1
				case a.est > b.est:
					return 1
				}
				return 0
			})
			got := make([]rankItem, n)
			rankByEst(got, stage, &buf, rankItemEst)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: rankByEst differs from the stable sort", tc.name, n)
			}
			if !slices.Equal(stage, orig) {
				t.Fatalf("%s, n=%d: rankByEst wrote to its staging slice", tc.name, n)
			}
		}
	}
	for p := 0; p <= 8; p++ {
		if !passes[p] {
			t.Errorf("no input needed %d passes", p)
		}
	}
}

// TestRankByEstAllocs is rankByEst's row of the allocation gate: with a
// buffer that has room, ranking allocates nothing, at any pass count.
func TestRankByEstAllocs(t *testing.T) {
	rng := sim.NewRNG(35)
	for _, span := range []int64{1, 1 << 8, 1 << 29, 1 << 40} {
		stage := make([]rankItem, 5000)
		for i := range stage {
			stage[i] = rankItem{est: time.Duration(rng.Int63() % span), seq: i}
		}
		out := make([]rankItem, len(stage))
		buf := make([]rankItem, len(stage))
		t.Run(fmt.Sprint(span), func(t *testing.T) {
			if n := testing.AllocsPerRun(20, func() { rankByEst(out, stage, &buf, rankItemEst) }); n != 0 {
				t.Errorf("%.1f allocations, want 0", n)
			}
		})
	}
}
