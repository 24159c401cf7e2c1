// Package asap is the public face of this repository: a full
// implementation of ASAP, the AS-aware peer-relay selection protocol for
// high-quality VoIP (Ren, Guo, Zhang — ICDCS 2006), together with every
// substrate the paper's evaluation needs: a synthetic annotated AS
// topology, BGP prefix tables, peer-population clustering, a ground-truth
// latency/loss model with congestion injection, the ITU E-Model, the
// RON/SOSR-like baselines, a Skype-like client for the Section 5 study,
// and a message-level deployment over in-memory or TCP transports.
//
// Three entry points cover most uses:
//
//   - Simulation and evaluation: BuildWorld a Profile, then NewSystem and
//     SelectCloseRelay (or the eval harness via cmd/asapsim).
//   - Algorithms only: the re-exported asgraph/bgp/netmodel types.
//   - Live deployment: NewBootstrap and NewNode over NewTCPTransport —
//     see cmd/asapd and examples/livenet.
//
// The subpackages under internal/ hold the implementation; this package
// re-exports the stable surface.
package asap

import (
	"asap/internal/asgraph"
	"asap/internal/baseline"
	"asap/internal/cluster"
	"asap/internal/core"
	"asap/internal/eval"
	"asap/internal/netmodel"
	"asap/internal/overlay"
	"asap/internal/skype"
	"asap/internal/transport"
)

// World building and evaluation harness.
type (
	// Profile is a world scale (tiny/small/paper).
	Profile = eval.Profile
	// World is a fully assembled simulation universe.
	World = eval.World
	// Session is one VoIP call between two hosts.
	Session = eval.Session
	// Comparison holds per-method outcomes for the Section 7 figures.
	Comparison = eval.Comparison
	// Outcome is one method's scored result on one session.
	Outcome = eval.Outcome
	// Method is a relay-selection method under evaluation.
	Method = eval.Method
)

// Predefined world scales.
var (
	TinyProfile  = eval.Tiny
	SmallProfile = eval.Small
	PaperProfile = eval.Paper
)

// BuildWorld assembles a world for the profile.
func BuildWorld(p Profile) (*World, error) { return eval.BuildWorld(p) }

// RunComparison runs methods over sessions and scores them. Sessions
// are evaluated on `workers` goroutines (< 1 = all CPUs); every
// (method, session) run draws from its own sub-seeded RNG, so the
// result is identical for every worker count.
func RunComparison(methods []Method, sessions []Session, seed int64, workers int) *Comparison {
	return eval.RunComparison(methods, sessions, seed, workers)
}

// NewBaselineMethod, NewASAPMethod and NewOPTMethod wrap selectors for
// RunComparison.
var (
	NewBaselineMethod = eval.NewBaselineMethod
	NewASAPMethod     = eval.NewASAPMethod
	NewOPTMethod      = eval.NewOPTMethod
)

// The ASAP protocol (algorithmic layer).
type (
	// Params are the protocol parameters (K, latT, lossT, sizeT).
	Params = core.Params
	// System is a running ASAP deployment's algorithmic view.
	System = core.System
	// CloseSet is a cluster's close cluster set.
	CloseSet = core.CloseSet
	// Selection is the result of select-close-relay for one session.
	Selection = core.Selection
)

// DefaultParams returns the paper's evaluation parameters
// (K=4, latT=300ms, sizeT=300).
func DefaultParams() Params { return core.DefaultParams() }

// NewSystem assembles an ASAP system over a world's model and prober,
// seeded from the world's profile so close-set construction is
// deterministic under concurrency.
func NewSystem(w *World, params Params) (*System, error) {
	return core.NewSystemSeeded(w.Model, w.Prober, params, w.Profile.Seed)
}

// The ASAP protocol (deployable actor layer).
type (
	// Bootstrap is the dedicated always-on server actor.
	Bootstrap = core.Bootstrap
	// BootstrapConfig seeds a bootstrap node.
	BootstrapConfig = core.BootstrapConfig
	// PrefixOrigin is one prefix-to-origin-AS row.
	PrefixOrigin = core.PrefixOrigin
	// Node is a peer actor (end host and, when elected, surrogate).
	Node = core.Node
	// NodeConfig configures a peer actor.
	NodeConfig = core.NodeConfig
	// RelayChoice is the outcome of a live call setup.
	RelayChoice = core.RelayChoice
	// Transport is the pluggable message layer.
	Transport = transport.Transport
	// Message is the wire envelope.
	Message = transport.Message
	// NodalInfo is a node's published capability information.
	NodalInfo = transport.NodalInfo
)

// NewBootstrap builds and serves a bootstrap node.
var NewBootstrap = core.NewBootstrap

// DemoBootstrapConfig returns the built-in demo deployment: two distant
// stub clusters and a multi-homed middle one (Figure 4 in miniature).
var DemoBootstrapConfig = core.DemoBootstrapConfig

// NewPeer builds and serves a peer node, joining via its bootstrap.
var NewPeer = core.NewNode

// NewTCPTransport returns the transport for live deployments: binary-codec
// frames over TCP connections it keeps between calls.
func NewTCPTransport() Transport { return transport.NewTCP() }

// NewMemTransport returns the in-memory transport used in tests and
// simulations.
func NewMemTransport() Transport { return transport.NewMem() }

// Substrates, re-exported for direct use.
type (
	// ASN identifies an Autonomous System.
	ASN = asgraph.ASN
	// ASGraph is the annotated AS-level topology.
	ASGraph = asgraph.Graph
	// Relationship annotates AS edges (c2p/p2c/p2p/s2s).
	Relationship = asgraph.Relationship
	// HostID indexes a host within a population.
	HostID = cluster.HostID
	// ClusterID indexes an IP-prefix cluster.
	ClusterID = cluster.ClusterID
	// Population is the clustered peer population.
	Population = cluster.Population
	// NetModel is the ground-truth latency/loss model.
	NetModel = netmodel.Model
	// Codec holds E-Model codec parameters.
	Codec = netmodel.Codec
	// OverlayPath is a scored voice path (direct / 1-hop / 2-hop).
	OverlayPath = overlay.Path
	// SkypeClient is the Section 5 AS-unaware client model.
	SkypeClient = skype.Client
	// BaselineSelector is a DEDI/RAND/MIX-style method.
	BaselineSelector = baseline.Selector
)

// E-Model helpers and the paper's quality constants.
var (
	// MOSFromRTT computes a Mean Opinion Score from a round-trip time.
	MOSFromRTT = netmodel.MOSFromRTT
	// CodecG729A is the paper's evaluation codec (G.729A+VAD).
	CodecG729A = netmodel.CodecG729A
	// CodecG711 is provided for comparison.
	CodecG711 = netmodel.CodecG711
)

// Quality thresholds from Sections 2 and 7.1.
const (
	// QualityRTT is the 300 ms round-trip ceiling for satisfactory VoIP.
	QualityRTT = netmodel.QualityRTT
	// SatisfactionMOS is the 3.6 MOS user-satisfaction floor.
	SatisfactionMOS = netmodel.SatisfactionMOS
)
