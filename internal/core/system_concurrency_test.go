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

// TestCloseSetConcurrentBuildsMatchSequential: eight goroutines build
// disjoint clusters' sets on one System, so several build scratches are
// live at once and each is recycled into other clusters' builds. Every
// set and its build cost must equal what a sequential System builds over
// the same world.
func TestCloseSetConcurrentBuildsMatchSequential(t *testing.T) {
	w := buildWorld(t, 200, 1200, 93)
	seq := newSystem(t, w, DefaultParams())
	par := newSystem(t, w, DefaultParams())

	clusters := w.pop.Clusters()
	if len(clusters) > 96 {
		clusters = clusters[:96]
	}
	want := make([]*CloseSet, len(clusters))
	for i, c := range clusters {
		cs, err := seq.CloseSet(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cs
	}

	const workers = 8
	got := make([]*CloseSet, len(clusters))
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := wkr; i < len(clusters); i += workers {
				cs, err := par.CloseSet(clusters[i].ID)
				if err != nil {
					t.Errorf("worker %d: CloseSet(%d): %v", wkr, clusters[i].ID, err)
					return
				}
				got[i] = cs
			}
		}(wkr)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, c := range clusters {
		if !slices.Equal(got[i].Clusters, want[i].Clusters) {
			t.Fatalf("cluster %d: concurrent build\n%v\nsequential build\n%v", c.ID, got[i].Clusters, want[i].Clusters)
		}
		if got[i].BuildMessages != want[i].BuildMessages {
			t.Fatalf("cluster %d: concurrent build cost %d messages, sequential %d", c.ID, got[i].BuildMessages, want[i].BuildMessages)
		}
	}
	if seq.BuildMessages() != par.BuildMessages() {
		t.Errorf("cumulative build cost: concurrent %d, sequential %d", par.BuildMessages(), seq.BuildMessages())
	}
	par.scratchMu.Lock()
	idle := len(par.scratch)
	par.scratchMu.Unlock()
	if idle < 1 || idle > workers {
		t.Errorf("%d idle build scratches after %d workers finished, want 1..%d", idle, workers, workers)
	}
}

// TestCloseSetBuildAllocs: once a System has its build scratch, a
// cluster's close-set build allocates a fixed budget however large the
// set and however far the walk reached: four every time (the set, its
// entries, the singleflight handle and its channel) and up to four more
// on the builds that grow the set cache's map.
func TestCloseSetBuildAllocs(t *testing.T) {
	const budget = 8
	w := buildWorld(t, 200, 1200, 94)
	for _, asn := range w.g.ASNs() {
		w.model.Router().Table(asn) // route tables are the model's, not the build's
	}
	s := newSystem(t, w, DefaultParams())
	clusters := w.pop.Clusters()
	next := 0
	build := func() {
		if _, err := s.CloseSet(clusters[next].ID); err != nil {
			t.Fatal(err)
		}
		next++
	}
	build() // makes the scratch

	minSize, maxSize := len(clusters), 0
	for next+1 < len(clusters) && next < 200 {
		// AllocsPerRun builds one cluster to warm up and measures the next.
		n := testing.AllocsPerRun(1, build)
		cs, err := s.CloseSet(clusters[next-1].ID)
		if err != nil {
			t.Fatal(err)
		}
		if n > budget {
			t.Errorf("cluster %d: a build of %d entries allocated %.0f times, budget %d", cs.Owner, cs.Size(), n, budget)
		}
		minSize, maxSize = min(minSize, cs.Size()), max(maxSize, cs.Size())
	}
	if maxSize < 2*minSize+50 {
		t.Fatalf("measured sets span %d..%d entries: too narrow to show the budget is size-free", minSize, maxSize)
	}
	t.Logf("%d builds of %d..%d entries, each within %d allocations", next, minSize, maxSize, budget)
}
