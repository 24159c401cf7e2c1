// Command asgen generates and inspects synthetic worlds: the annotated AS
// topology, the BGP prefix allocation, the peer population, and the
// Gao-inference accuracy check. It is the tooling face of the paper's
// data pipeline (Fig. 1): crawl -> BGP tables -> clusters -> delegates.
//
// Usage:
//
//	asgen -ases 2000 -hosts 12000            # summarize a world
//	asgen -ases 2000 -infer                  # run Gao inference and score it
//	asgen -ases 500 -rib -vantages 5         # dump RIB sizes per vantage
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/cluster"
	"asap/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "asgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("asgen", flag.ContinueOnError)
	var (
		ases     = fs.Int("ases", 2000, "number of ASes")
		hosts    = fs.Int("hosts", 12000, "number of peer hosts")
		seed     = fs.Int64("seed", 1, "generator seed")
		infer    = fs.Bool("infer", false, "run Gao relationship inference and score accuracy")
		rib      = fs.Bool("rib", false, "synthesize RIB dumps from vantage points")
		vantages = fs.Int("vantages", 8, "vantage AS count for -infer/-rib")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := sim.NewRNG(*seed)
	g, err := asgraph.Generate(asgraph.DefaultGenConfig(*ases), rng)
	if err != nil {
		return err
	}
	alloc, err := bgp.Allocate(g, bgp.DefaultAllocConfig(), rng)
	if err != nil {
		return err
	}
	pop, err := cluster.Generate(alloc, cluster.DefaultGenConfig(*hosts), rng)
	if err != nil {
		return err
	}

	var t1, transit, stub int
	degrees := make([]int, 0, g.NumNodes())
	for _, asn := range g.ASNs() {
		switch g.Node(asn).Tier {
		case asgraph.TierT1:
			t1++
		case asgraph.TierTransit:
			transit++
		case asgraph.TierStub:
			stub++
		}
		degrees = append(degrees, g.Degree(asn))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	fmt.Printf("AS graph: %d nodes (%d tier-1, %d transit, %d stub), %d links\n",
		g.NumNodes(), t1, transit, stub, g.NumEdges())
	fmt.Printf("  top degrees: %v\n", degrees[:min(10, len(degrees))])
	fmt.Printf("prefixes: %d allocated; population: %d hosts in %d clusters\n",
		alloc.NumPrefixes(), pop.NumHosts(), pop.NumClusters())
	fmt.Printf("  clusters <= 100 hosts: %.1f%% (paper: ~90%%)\n", 100*pop.SizeCDFAt(100))
	fmt.Printf("  populated ASes: %d (paper: 1,461 of 20,955)\n", len(pop.PopulatedASes()))

	if !*infer && !*rib {
		return nil
	}

	router := asgraph.NewRouter(g, 0)
	asns := g.ASNs()
	vidx := rng.Sample(len(asns), *vantages)
	vas := make([]asgraph.ASN, 0, len(vidx))
	for _, i := range vidx {
		vas = append(vas, asns[i])
	}
	entries := bgp.SynthesizeRIB(router, alloc, vas)
	fmt.Printf("RIB: %d entries from %d vantages\n", len(entries), len(vas))

	if *rib {
		perV := make(map[asgraph.ASN]int)
		for _, e := range entries {
			perV[e.Path[0]]++
		}
		for _, v := range vas {
			fmt.Printf("  vantage AS%-6d: %d routes\n", v, perV[v])
		}
	}
	if *infer {
		edges := asgraph.InferRelationships(bgp.Paths(entries))
		agree, total := asgraph.CompareAnnotations(edges, g)
		fmt.Printf("Gao inference: %d edges classified, %.1f%% agree with ground truth (paper cites >90%% on real data)\n",
			total, 100*float64(agree)/float64(max(total, 1)))
	}
	return nil
}
