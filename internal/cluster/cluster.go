// Package cluster synthesizes the peer population and groups it into IP
// prefix clusters, reproducing Section 3.1 of the paper: crawled peer IPs
// are grouped "with the same longest matched prefix into one cluster", and
// one random IP per cluster is elected delegate for pairwise latency
// measurement.
//
// The paper's population was 269,413 crawled Gnutella IPs, of which
// 103,625 matched 7,171 prefixes in 1,461 ASes; 90% of clusters held no
// more than 100 online hosts (Section 6.3). The generator reproduces those
// proportions at any scale with heavy-tailed cluster sizes.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"asap/internal/asgraph"
	"asap/internal/bgp"
	"asap/internal/sim"
)

// HostID indexes a host within a Population.
type HostID int32

// ClusterID indexes a cluster within a Population.
type ClusterID int32

// Host is one VoIP peer end host.
type Host struct {
	ID      HostID
	Addr    bgp.Addr
	Prefix  bgp.Prefix
	AS      asgraph.ASN
	Cluster ClusterID

	// Nodal information, published to surrogates (Section 6.1: "nodal
	// information includes bandwidth, continuous online time, node
	// processing power").
	BandwidthKbps float64
	OnlineFor     time.Duration
	CPUScore      float64

	// AccessDelay is the host's last-mile one-way delay contribution.
	AccessDelay time.Duration
}

// NodalScore ranks hosts for surrogate suitability: powerful, stable,
// well-connected hosts score higher.
func (h *Host) NodalScore() float64 {
	return h.BandwidthKbps/1000 + h.OnlineFor.Hours() + h.CPUScore
}

// Cluster is one IP-prefix cluster of hosts.
type Cluster struct {
	ID     ClusterID
	Prefix bgp.Prefix
	AS     asgraph.ASN
	// Hosts lists member host IDs in ascending order.
	Hosts []HostID
	// Delegate is the randomly elected measurement delegate (Section 3.1).
	Delegate HostID
}

// Population is an immutable set of hosts grouped into clusters.
type Population struct {
	hosts    []Host
	clusters []Cluster
	byAS     map[asgraph.ASN][]ClusterID
}

// sizeSkew is the Zipf skew of cluster sizes; larger means a few big
// clusters and many tiny ones. ~0.75 reproduces "90% of clusters hold
// <= 100 hosts" at paper scale.
const sizeSkew float64 = 0.75

// GenConfig controls population synthesis.
type GenConfig struct {
	// NumHosts is the number of online peer hosts to create.
	NumHosts int
	// PopulatedFrac is the fraction of allocated prefixes that contain
	// any online peers (the paper matched 7,171 of all routed prefixes).
	PopulatedFrac float64
}

// DefaultGenConfig returns a config for the given host count.
func DefaultGenConfig(numHosts int) GenConfig {
	return GenConfig{
		NumHosts:      numHosts,
		PopulatedFrac: 0.45,
	}
}

// Generate synthesizes a population over the allocation. Host attributes
// (bandwidth, uptime, CPU, access delay) are drawn from heavy-tailed
// distributions typical of 2005-era broadband peer populations.
func Generate(alloc *bgp.Allocation, cfg GenConfig, rng *sim.RNG) (*Population, error) {
	if cfg.NumHosts < 1 {
		return nil, fmt.Errorf("cluster: NumHosts must be >= 1, got %d", cfg.NumHosts)
	}
	if cfg.PopulatedFrac <= 0 || cfg.PopulatedFrac > 1 {
		return nil, fmt.Errorf("cluster: PopulatedFrac must be in (0,1], got %g", cfg.PopulatedFrac)
	}
	nPrefixes := alloc.NumPrefixes()
	if nPrefixes == 0 {
		return nil, fmt.Errorf("cluster: allocation has no prefixes")
	}
	nPop := int(float64(nPrefixes) * cfg.PopulatedFrac)
	if nPop < 1 {
		nPop = 1
	}
	if nPop > cfg.NumHosts {
		nPop = cfg.NumHosts
	}
	populated := rng.Sample(nPrefixes, nPop)
	sort.Ints(populated)

	p := &Population{byAS: make(map[asgraph.ASN][]ClusterID)}
	p.clusters = make([]Cluster, nPop)
	hostsPer := make([][]HostID, nPop)
	for ci, pi := range populated {
		p.clusters[ci] = Cluster{
			ID:     ClusterID(ci),
			Prefix: alloc.Prefixes[pi],
			AS:     alloc.Origin[pi],
		}
	}

	// Assign hosts: first one host per cluster (a populated prefix is by
	// definition non-empty), then the rest by Zipf rank so sizes are
	// heavy-tailed. Rank order is a random permutation of clusters so big
	// clusters land anywhere in address space.
	rankOf := rng.Perm(nPop)
	p.hosts = make([]Host, 0, cfg.NumHosts)
	nextOffset := make([]uint32, nPop)
	addHost := func(ci int) error {
		c := &p.clusters[ci]
		// Spread member addresses across the prefix deterministically.
		off := nextOffset[ci]
		if uint64(off) >= c.Prefix.NumAddrs() {
			return fmt.Errorf("cluster: prefix %s exhausted", c.Prefix)
		}
		nextOffset[ci]++
		id := HostID(len(p.hosts))
		h := Host{
			ID:            id,
			Addr:          c.Prefix.Nth(off),
			Prefix:        c.Prefix,
			AS:            c.AS,
			Cluster:       c.ID,
			BandwidthKbps: 128 + rng.Pareto(256, 1.2), // DSL .. campus links
			OnlineFor:     time.Duration(rng.Pareto(600, 1.1)) * time.Second,
			CPUScore:      rng.Uniform(0.5, 4.0),
			AccessDelay:   time.Duration((1 + rng.Pareto(1.5, 1.8)) * float64(time.Millisecond)),
		}
		p.hosts = append(p.hosts, h)
		hostsPer[ci] = append(hostsPer[ci], id)
		return nil
	}
	for ci := 0; ci < nPop && len(p.hosts) < cfg.NumHosts; ci++ {
		if err := addHost(ci); err != nil {
			return nil, err
		}
	}
	full := func(ci int) bool {
		return uint64(nextOffset[ci]) >= p.clusters[ci].Prefix.NumAddrs()
	}
	zipf := sim.NewZipfTable(nPop, sizeSkew)
	for len(p.hosts) < cfg.NumHosts {
		ci := rankOf[zipf.Sample(rng)-1]
		if full(ci) {
			// Small prefix filled up: scan for a non-full cluster from a
			// random start so the overflow spreads instead of aborting.
			start := rng.Intn(nPop)
			found := -1
			for k := 0; k < nPop; k++ {
				if cand := (start + k) % nPop; !full(cand) {
					found = cand
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("cluster: all %d populated prefixes exhausted at %d hosts",
					nPop, len(p.hosts))
			}
			ci = found
		}
		if err := addHost(ci); err != nil {
			return nil, err
		}
	}

	for ci := range p.clusters {
		c := &p.clusters[ci]
		c.Hosts = hostsPer[ci]
		c.Delegate = c.Hosts[rng.Intn(len(c.Hosts))]
		p.byAS[c.AS] = append(p.byAS[c.AS], c.ID)
	}
	return p, nil
}

// NumHosts returns the host count.
func (p *Population) NumHosts() int { return len(p.hosts) }

// NumClusters returns the cluster count.
func (p *Population) NumClusters() int { return len(p.clusters) }

// Host returns the host with the given ID. It panics on a bad ID: IDs are
// produced by this package, so a bad one is a caller bug.
func (p *Population) Host(id HostID) *Host { return &p.hosts[id] }

// Cluster returns the cluster with the given ID.
func (p *Population) Cluster(id ClusterID) *Cluster { return &p.clusters[id] }

// Hosts returns all hosts. Callers must not mutate the slice.
func (p *Population) Hosts() []Host { return p.hosts }

// Clusters returns all clusters. Callers must not mutate the slice.
func (p *Population) Clusters() []Cluster { return p.clusters }

// ClustersInAS returns the clusters whose prefix originates in asn.
func (p *Population) ClustersInAS(asn asgraph.ASN) []ClusterID {
	return p.byAS[asn]
}

// PopulatedASes returns every AS containing at least one cluster,
// ascending.
func (p *Population) PopulatedASes() []asgraph.ASN {
	out := make([]asgraph.ASN, 0, len(p.byAS))
	for asn := range p.byAS {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SizeCDFAt returns the fraction of clusters with at most n hosts,
// the statistic behind Section 6.3's "90% of the clusters contain no more
// than 100 online end hosts".
func (p *Population) SizeCDFAt(n int) float64 {
	if len(p.clusters) == 0 {
		return 0
	}
	cnt := 0
	for i := range p.clusters {
		if len(p.clusters[i].Hosts) <= n {
			cnt++
		}
	}
	return float64(cnt) / float64(len(p.clusters))
}
