package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/sim"
)

// selectMapWalk is select-close-relay as it was written before the merge
// kernel: one-hop walks S1 as a map and looks each cluster up in S2's,
// two-hop walks every winner's set the same way, and sort.Slice ranks
// the lot. It is kept verbatim, reading the sorted sets back into maps, as
// the reference TestSelectCloseRelayMatchesMapWalk holds the kernel to.
func selectMapWalk(s *core.System, pop *cluster.Population, params core.Params, h1, h2 cluster.HostID, prober *netmodel.Prober) (*core.Selection, error) {
	latOf := func(cs *core.CloseSet) map[cluster.ClusterID]time.Duration {
		m := make(map[cluster.ClusterID]time.Duration, len(cs.Clusters))
		for _, e := range cs.Clusters {
			m[e.Cluster] = e.RTT
		}
		return m
	}
	if h1 == h2 {
		return nil, fmt.Errorf("core: session endpoints are the same host %d", h1)
	}
	if !s.Alive(h1) || !s.Alive(h2) {
		return nil, fmt.Errorf("core: session endpoint offline")
	}
	ha, hb := pop.Host(h1), pop.Host(h2)
	sel := &core.Selection{}

	// Step 1: direct measurement (system utility such as ping: 2 msgs).
	sel.Messages += 2
	if rtt, ok := prober.WithCounters(nil).HostRTT(h1, h2); ok {
		sel.Direct, sel.DirectOK = rtt, true
	}

	s1, err := s.CloseSet(ha.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: caller close set: %w", err)
	}
	// Step 2: fetch S2 from h2 — the "one-hop relay node selection only
	// needs 2 messages" of Section 7.3.
	sel.Messages += 2
	s2, err := s.CloseSet(hb.Cluster)
	if err != nil {
		return nil, fmt.Errorf("core: callee close set: %w", err)
	}
	s1Lat, s2Lat := latOf(s1), latOf(s2)

	// Step 3: one-hop intersection.
	for rc, lat1 := range s1Lat {
		if rc == ha.Cluster || rc == hb.Cluster {
			continue
		}
		lat2, ok := s2Lat[rc]
		if !ok {
			continue
		}
		est := lat1 + lat2 + overlay.RelayRTT
		if est >= params.LatT {
			continue
		}
		sel.OneHop = append(sel.OneHop, core.OneHopCandidate{Cluster: rc, EstRTT: est})
		sel.OneHopHosts += len(pop.Cluster(rc).Hosts)
	}
	sort.Slice(sel.OneHop, func(i, j int) bool {
		if sel.OneHop[i].EstRTT != sel.OneHop[j].EstRTT {
			return sel.OneHop[i].EstRTT < sel.OneHop[j].EstRTT
		}
		return sel.OneHop[i].Cluster < sel.OneHop[j].Cluster
	})

	// Step 4: two-hop expansion when the one-hop set is small.
	if sel.OneHopHosts < params.SizeT {
		for _, oc := range sel.OneHop {
			r1 := oc.Cluster
			// h1 obtains r1's close cluster set: 2 messages.
			sel.Messages += 2
			os1, err := s.CloseSet(r1)
			if err != nil {
				continue // r1's cluster lost its surrogate; skip it
			}
			lat1 := s1Lat[r1]
			for r2, latMid := range latOf(os1) {
				if r2 == r1 || r2 == ha.Cluster || r2 == hb.Cluster {
					continue
				}
				lat2, ok := s2Lat[r2]
				if !ok {
					continue
				}
				est := lat1 + latMid + lat2 + 2*overlay.RelayRTT
				if est >= params.LatT {
					continue
				}
				sel.TwoHop = append(sel.TwoHop, core.TwoHopCandidate{First: r1, Second: r2, EstRTT: est})
				sel.TwoHopPairs += int64(len(pop.Cluster(r1).Hosts)) *
					int64(len(pop.Cluster(r2).Hosts))
			}
		}
		sort.Slice(sel.TwoHop, func(i, j int) bool {
			if sel.TwoHop[i].EstRTT != sel.TwoHop[j].EstRTT {
				return sel.TwoHop[i].EstRTT < sel.TwoHop[j].EstRTT
			}
			if sel.TwoHop[i].First != sel.TwoHop[j].First {
				return sel.TwoHop[i].First < sel.TwoHop[j].First
			}
			return sel.TwoHop[i].Second < sel.TwoHop[j].Second
		})
	}
	return sel, nil
}

// TestSelectCloseRelayMatchesMapWalk is the differential test for
// selection: on every session of the tiny profile and 200 of the small
// one, at SizeT 0 (one-hop only) and 300, SelectCloseRelayWith returns
// what the map walk returns, candidate for candidate and message for
// message. The sessions include ones where an endpoint's cluster is in
// the other endpoint's close set, the case the endpoint skip is for. On
// small at SizeT 300 the sessions then run again after every host of
// several one-hop-winner clusters has failed, so two-hop expansion meets
// winners with no surrogate and must skip them as the map walk does.
func TestSelectCloseRelayMatchesMapWalk(t *testing.T) {
	for _, tc := range []struct {
		profile  eval.Profile
		sessions int
	}{{eval.Tiny, eval.Tiny.Sessions}, {eval.Small, 200}} {
		w := buildWorld(t, tc.profile)
		sessions := w.RandomSessions(tc.sessions)
		for _, sizeT := range []int{0, 300} {
			params := core.DefaultParams()
			params.SizeT = sizeT
			s, err := w.NewASAP(params)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/SizeT=%d", tc.profile.Name, sizeT)
			got := matchMapWalk(t, name, w, tc.profile.Seed, s, params, sessions)
			crossed, twoHop := 0, 0
			for i, ss := range sessions {
				if got[i] == nil {
					continue
				}
				ca, cb := w.Pop.Host(ss.A).Cluster, w.Pop.Host(ss.B).Cluster
				s1, _ := s.CloseSet(ca)
				s2, _ := s.CloseSet(cb)
				if holds(s1, cb) || holds(s2, ca) {
					crossed++
				}
				if len(got[i].TwoHop) > 0 {
					twoHop++
				}
			}
			if crossed == 0 {
				t.Errorf("%s: no session has an endpoint's cluster in the other's close set", name)
			}
			if (sizeT > 0) != (twoHop > 0) {
				t.Errorf("%s: %d sessions found two-hop candidates", name, twoHop)
			}
			t.Logf("%s: %d sessions equal, %d with an endpoint in the other's set, %d with two-hop candidates", name, len(sessions), crossed, twoHop)

			if tc.profile.Name != eval.Small.Name || sizeT == 0 {
				continue
			}
			// Fail every host of each expanding session's best one-hop
			// winner, in session order, until four clusters are down.
			var dead []cluster.ClusterID
			for _, sel := range got {
				if sel == nil || sel.OneHopHosts >= sizeT || len(sel.OneHop) == 0 || len(dead) == 4 {
					continue
				}
				if c := sel.OneHop[0].Cluster; !slices.Contains(dead, c) {
					dead = append(dead, c)
				}
			}
			for _, c := range dead {
				for _, h := range w.Pop.Cluster(c).Hosts {
					s.FailHost(h)
				}
			}
			name += "/dead-winners"
			skipped := 0
			for _, sel := range matchMapWalk(t, name, w, tc.profile.Seed, s, params, sessions) {
				if sel == nil || sel.OneHopHosts >= sizeT {
					continue
				}
				if slices.ContainsFunc(sel.OneHop, func(oc core.OneHopCandidate) bool { return slices.Contains(dead, oc.Cluster) }) {
					skipped++
				}
			}
			if skipped == 0 {
				t.Errorf("%s: no expanding session has a winner in dead clusters %v", name, dead)
			}
			t.Logf("%s: %d expanding sessions skip a winner in dead clusters %v", name, skipped, dead)
		}
	}
}

// matchMapWalk runs every session through SelectCloseRelayWith and the map
// walk, each with the session's own sub-seeded prober, fails the test on
// the first difference, and returns the selections (nil where both
// errored).
func matchMapWalk(t *testing.T, name string, w *eval.World, seed int64, s *core.System, params core.Params, sessions []eval.Session) []*core.Selection {
	t.Helper()
	out := make([]*core.Selection, len(sessions))
	for i, ss := range sessions {
		prober := func() *netmodel.Prober { return w.Prober.WithRNG(sim.NewRNG(sim.SubSeed(seed, uint64(i)))) }
		want, werr := selectMapWalk(s, w.Pop, params, ss.A, ss.B, prober())
		got, gerr := s.SelectCloseRelayWith(ss.A, ss.B, prober())
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s session %d: error %v, map walk %v", name, i, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s session %d (%d -> %d):\n got %+v\nwant %+v", name, i, ss.A, ss.B, got, want)
		}
		out[i] = got
	}
	return out
}

func holds(cs *core.CloseSet, c cluster.ClusterID) bool {
	for _, e := range cs.Clusters {
		if e.Cluster == c {
			return true
		}
	}
	return false
}

// TestSelectCloseRelayAllocs is select-close-relay's row of the allocation
// gate. A warm selection on the tiny profile, one-hop only and with
// two-hop expansion, allocates the Selection and each non-empty candidate
// slice once, at its exact length, and nothing else: candidates are
// staged and ranked on the System's scratch, so a map, an append's
// growth or a sort's buffer coming back fails it.
func TestSelectCloseRelayAllocs(t *testing.T) {
	w := buildWorld(t, eval.Tiny)
	latent := w.LatentSessions(w.RandomSessions(eval.Tiny.Sessions), core.DefaultParams().LatT)
	if len(latent) > 40 {
		latent = latent[:40]
	}
	for _, sizeT := range []int{0, 300} {
		params := core.DefaultParams()
		params.SizeT = sizeT
		s, err := w.NewASAP(params)
		if err != nil {
			t.Fatal(err)
		}
		oneHop, twoHop := 0, 0
		for _, ss := range latent {
			sel, err := s.SelectCloseRelay(ss.A, ss.B) // warms every close set the session reads
			if err != nil {
				t.Fatal(err)
			}
			want := 1 // the Selection
			for _, n := range []int{len(sel.OneHop), len(sel.TwoHop)} {
				if n > 0 {
					want++
				}
			}
			if got := testing.AllocsPerRun(20, func() { _, _ = s.SelectCloseRelay(ss.A, ss.B) }); got != float64(want) {
				t.Fatalf("SizeT=%d session %d -> %d: %.1f allocations, want %d (%d one-hop and %d two-hop candidates)",
					sizeT, ss.A, ss.B, got, want, len(sel.OneHop), len(sel.TwoHop))
			}
			oneHop += len(sel.OneHop)
			twoHop += len(sel.TwoHop)
		}
		if oneHop == 0 || (sizeT > 0) != (twoHop > 0) {
			t.Errorf("SizeT=%d: %d one-hop and %d two-hop candidates over %d sessions", sizeT, oneHop, twoHop, len(latent))
		}
	}
}

// TestSelectCloseRelayConcurrentMatchesSequential: eight goroutines take
// 200 small sessions off a shared counter, as eval's parallel harness
// does, and select on one cold System, so selections hold scratches while
// the builds nested in them pop and push others. Every selection must
// equal what a sequential System returns for the same session.
func TestSelectCloseRelayConcurrentMatchesSequential(t *testing.T) {
	w := buildWorld(t, eval.Small)
	sessions := w.RandomSessions(200)
	seq, err := w.NewASAP(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	par, err := w.NewASAP(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prober := func(i int) *netmodel.Prober {
		return w.Prober.WithRNG(sim.NewRNG(sim.SubSeed(eval.Small.Seed, uint64(i))))
	}
	want := make([]*core.Selection, len(sessions))
	wantErr := make([]error, len(sessions))
	for i, ss := range sessions {
		want[i], wantErr[i] = seq.SelectCloseRelayWith(ss.A, ss.B, prober(i))
	}

	got := make([]*core.Selection, len(sessions))
	gotErr := make([]error, len(sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(sessions); i = int(next.Add(1) - 1) {
				got[i], gotErr[i] = par.SelectCloseRelayWith(sessions[i].A, sessions[i].B, prober(i))
			}
		}()
	}
	wg.Wait()

	twoHop := 0
	for i := range sessions {
		if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(gotErr[i], wantErr[i]) {
			t.Fatalf("session %d (%d -> %d):\nconcurrent %+v, %v\nsequential %+v, %v", i, sessions[i].A, sessions[i].B, got[i], gotErr[i], want[i], wantErr[i])
		}
		if want[i] != nil && len(want[i].TwoHop) > 0 {
			twoHop++
		}
	}
	if twoHop == 0 {
		t.Fatal("no session expanded to two-hop: the nested builds were not exercised")
	}
}
