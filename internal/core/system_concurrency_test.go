package core

import (
	"slices"
	"sync"
	"testing"

	"asap/internal/cluster"
)

// TestCloseSetConcurrentCallersConverge drives CloseSet from many
// goroutines over a small cluster set: concurrent misses for the same
// cluster must coalesce onto one construction (singleflight) and every
// caller must see the identical *CloseSet instance.
func TestCloseSetConcurrentCallersConverge(t *testing.T) {
	w := buildWorld(t, 200, 1200, 91)
	s := newSystem(t, w, DefaultParams())

	cids := make([]cluster.ClusterID, 0, 16)
	for _, c := range w.pop.Clusters() {
		cids = append(cids, c.ID)
		if len(cids) == 16 {
			break
		}
	}

	const workers = 8
	got := make([]map[cluster.ClusterID]*CloseSet, workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		got[wkr] = make(map[cluster.ClusterID]*CloseSet, len(cids))
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			// Different workers walk the clusters in different orders so
			// misses collide from both directions.
			for i := range cids {
				j := (i + wkr*3) % len(cids)
				if wkr%2 == 1 {
					j = len(cids) - 1 - j
				}
				cid := cids[j]
				cs, err := s.CloseSet(cid)
				if err != nil {
					t.Errorf("worker %d: CloseSet(%d): %v", wkr, cid, err)
					return
				}
				got[wkr][cid] = cs
			}
		}(wkr)
	}
	wg.Wait()

	for _, cid := range cids {
		ref := got[0][cid]
		if ref == nil {
			t.Fatalf("cluster %d: worker 0 has no set", cid)
		}
		for wkr := 1; wkr < workers; wkr++ {
			if got[wkr][cid] != ref {
				t.Fatalf("cluster %d: worker %d saw a different set instance", cid, wkr)
			}
		}
	}
}

// TestCloseSetSeedIndependentOfBuildOrder verifies the per-cluster
// sub-seeded probe streams: two systems over identical worlds must build
// identical close sets even when the clusters are constructed in opposite
// orders with unrelated probes interleaved.
func TestCloseSetSeedIndependentOfBuildOrder(t *testing.T) {
	w1 := buildWorld(t, 200, 1200, 92)
	w2 := buildWorld(t, 200, 1200, 92)
	s1 := newSystem(t, w1, DefaultParams())
	s2 := newSystem(t, w2, DefaultParams())

	cids := make([]cluster.ClusterID, 0, 12)
	for _, c := range w1.pop.Clusters() {
		cids = append(cids, c.ID)
		if len(cids) == 12 {
			break
		}
	}

	sets1 := make(map[cluster.ClusterID]*CloseSet)
	for _, cid := range cids {
		cs, err := s1.CloseSet(cid)
		if err != nil {
			t.Fatal(err)
		}
		sets1[cid] = cs
	}
	// Reverse order, with extra probe traffic on the shared stream between
	// builds — the per-cluster sub-seeds must make this irrelevant.
	for i := len(cids) - 1; i >= 0; i-- {
		s2.Prober().HostRTT(cluster.HostID(i), cluster.HostID(i+7))
		cs, err := s2.CloseSet(cids[i])
		if err != nil {
			t.Fatal(err)
		}
		ref := sets1[cids[i]]
		if !slices.Equal(cs.Clusters, ref.Clusters) {
			t.Fatalf("cluster %d: sets differ:\n%v\nvs\n%v", cids[i], cs.Clusters, ref.Clusters)
		}
		if cs.BuildMessages != ref.BuildMessages {
			t.Fatalf("cluster %d: build cost %d vs %d", cids[i], cs.BuildMessages, ref.BuildMessages)
		}
	}
}
