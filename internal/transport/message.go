package transport

import (
	"strconv"
	"time"
)

// MsgType enumerates the ASAP wire protocol messages (Section 6.1's node
// operations plus voice forwarding).
type MsgType int8

// Message types.
const (
	// MsgError carries a remote handler error back to the caller.
	MsgError MsgType = iota + 1

	// MsgJoin: end host -> bootstrap. Carries the host's IP; the reply
	// (MsgJoinReply) returns its ASN and its cluster surrogate's address.
	MsgJoin
	MsgJoinReply

	// MsgGetSurrogates: surrogate/end host -> bootstrap. Resolves the
	// surrogate addresses of clusters in the given ASes (used during
	// close-cluster-set construction).
	MsgGetSurrogates
	MsgGetSurrogatesReply

	// MsgGetCloseSet: caller -> callee, member -> surrogate. Returns a
	// close cluster set, Fig. 10's step 2. Without ClusterKey it asks for
	// the receiver's cluster's set: a lease holder answers with its own,
	// a member forwards the request once, keyed, to its surrogate. With
	// ClusterKey it asks for that cluster's set, and only the holder of
	// that cluster's lease answers; anyone else refuses.
	MsgGetCloseSet
	MsgGetCloseSetReply

	// MsgPublishNodalInfo: end host -> surrogate. Periodic nodal
	// information (bandwidth, uptime, CPU).
	MsgPublishNodalInfo
	MsgPublishNodalInfoReply

	// MsgPing: any -> any. Latency measurement and liveness check. A
	// ping that names a relay flow (FlowID) is the in-call keepalive: the
	// receiver also confirms it still holds that flow, and refuses the
	// ping if it does not.
	MsgPing
	MsgPong

	// MsgRelayOpen: endpoint -> relay. Asks the relay to forward a voice
	// flow to the given destination. Idempotent: a repeat open from the
	// same endpoint for the same destination gets the flow it already has,
	// unless FlowID names that flow as dropped and to be replaced.
	MsgRelayOpen
	MsgRelayOpenReply

	// MsgVoice: endpoint -> relay -> endpoint. A batch of voice frames.
	MsgVoice
	MsgVoiceAck

	// MsgSurrogateHeartbeat: surrogate -> bootstrap. Claims the surrogate
	// lease of the sender's prefix cluster: the first heartbeat registers,
	// later ones renew (and re-acquire it after a bootstrap restart). The
	// reply names the cluster's current lease holder, so a volunteer or
	// surrogate that lost the lease learns whom to follow.
	MsgSurrogateHeartbeat
	MsgSurrogateHeartbeatReply

	// MsgMediaSetup: caller -> callee. One round of the media handshake.
	// Carries the caller's STUN-discovered external media address, the
	// flow token both sides bind (identifying which call), the voice
	// relay's media address (empty = each side's configured relay), and
	// an epoch: the callee acts once per epoch and re-answers one it has
	// begun, so control retries are idempotent. Epoch 0 starts the call's
	// voice data plane; every later epoch re-runs the traversal ladder
	// mid-call on the same flow (same SSRC, receive stats continuous).
	// The reply returns the callee's external media address, after which
	// both sides climb direct -> punched -> relayed simultaneously.
	MsgMediaSetup
	MsgMediaSetupReply

	// MsgProbeBatch: caller -> relay (or callee). One coalesced
	// measurement round trip for every path that shares this wire
	// destination: ProbeDsts lists the far legs to measure, where an
	// empty Addr means "no far leg — measure the path to you". The
	// receiver pings all destinations concurrently and answers with
	// MsgProbeBatchReply carrying ProbeRTTs aligned to ProbeDsts (-1 for
	// an unreachable destination). Because the legs run concurrently,
	// the caller recovers its own leg as elapsed - max(ProbeRTTs) and
	// fans the reply back out into one RTT sample per path — N paths,
	// one round trip (DESIGN.md §15).
	MsgProbeBatch
	MsgProbeBatchReply

	// msgTypeLimit is one past the last declared message type. The
	// decoder rejects type bytes outside [1, msgTypeLimit), so a frame
	// carrying a type this build does not know fails loudly instead of
	// dispatching into a zero-value handler path. The protosync analyzer
	// (`make lint`) checks the sentinel stays last and stays consulted.
	msgTypeLimit
)

// String names t for logs, error messages and protocol diagnostics.
// Every declared message type needs a case here: the protosync analyzer
// fails `make lint` when the enum and this switch drift apart.
func (t MsgType) String() string {
	switch t {
	case MsgError:
		return "MsgError"
	case MsgJoin:
		return "MsgJoin"
	case MsgJoinReply:
		return "MsgJoinReply"
	case MsgGetSurrogates:
		return "MsgGetSurrogates"
	case MsgGetSurrogatesReply:
		return "MsgGetSurrogatesReply"
	case MsgGetCloseSet:
		return "MsgGetCloseSet"
	case MsgGetCloseSetReply:
		return "MsgGetCloseSetReply"
	case MsgPublishNodalInfo:
		return "MsgPublishNodalInfo"
	case MsgPublishNodalInfoReply:
		return "MsgPublishNodalInfoReply"
	case MsgPing:
		return "MsgPing"
	case MsgPong:
		return "MsgPong"
	case MsgRelayOpen:
		return "MsgRelayOpen"
	case MsgRelayOpenReply:
		return "MsgRelayOpenReply"
	case MsgVoice:
		return "MsgVoice"
	case MsgVoiceAck:
		return "MsgVoiceAck"
	case MsgSurrogateHeartbeat:
		return "MsgSurrogateHeartbeat"
	case MsgSurrogateHeartbeatReply:
		return "MsgSurrogateHeartbeatReply"
	case MsgMediaSetup:
		return "MsgMediaSetup"
	case MsgMediaSetupReply:
		return "MsgMediaSetupReply"
	case MsgProbeBatch:
		return "MsgProbeBatch"
	case MsgProbeBatchReply:
		return "MsgProbeBatchReply"
	}
	return "MsgType(" + strconv.Itoa(int(t)) + ")"
}

// CloseEntry is one close-cluster-set entry on the wire.
type CloseEntry struct {
	// ClusterKey is the cluster's IP prefix in CIDR notation — the
	// cluster's global identity in the deployed system.
	ClusterKey string
	// SurrogateAddr is the cluster surrogate's transport address.
	SurrogateAddr Addr
	// RTT is the measured surrogate-to-surrogate round-trip time.
	RTT time.Duration
}

// NodalInfo mirrors Section 6.1's published node attributes.
type NodalInfo struct {
	BandwidthKbps float64
	OnlineFor     time.Duration
	CPUScore      float64
}

// Message is the single wire envelope. Fields are a tagged union keyed
// by Type; the binary codec (codec.go) skips zero fields entirely, and
// one struct keeps the protocol simple to evolve and debug.
type Message struct {
	Type MsgType
	From Addr
	// Via is the wire-level sender of this hop when it differs from the
	// protocol origin: a relay forwarding a caller's message keeps From
	// (so the callee attributes the traffic to the speaker) and sets Via
	// to itself. The transport charges hop latency — and, under the
	// sharded runner, resolves the sending shard — from Via when set,
	// From otherwise, mirroring a real network where the packet leaves
	// the relay's socket, not the caller's.
	Via Addr

	// Error is set with MsgError.
	Error string

	// IP is the joining host's address (MsgJoin).
	IP string
	// ASN is the origin AS number (MsgJoinReply).
	ASN uint32
	// ClusterKey identifies a prefix cluster (join/register; in
	// MsgGetCloseSet, the cluster whose set is asked for).
	ClusterKey string
	// SurrogateAddr is a surrogate's transport address (MsgJoinReply,
	// MsgSurrogateHeartbeat and its reply).
	SurrogateAddr Addr
	// ASNs carries the AS list of MsgGetSurrogates.
	ASNs []uint32
	// CloseSet carries close-cluster-set entries (MsgGetCloseSetReply;
	// MsgGetSurrogatesReply reuses the entry shape with RTT zero).
	CloseSet []CloseEntry
	// Nodal carries MsgPublishNodalInfo attributes.
	Nodal NodalInfo
	// SentAt timestamps pings for RTT computation on the caller side, as
	// an offset on the sender's scheduler. Only the sender interprets it
	// (the receiver echoes it back), so the origin never leaves the node.
	SentAt time.Duration
	// Dst is the forwarding destination (MsgRelayOpen, MsgVoice).
	Dst Addr
	// FlowID identifies a relayed voice flow (in MsgRelayOpen: the flow
	// the caller dropped and this open replaces, if any; in MsgPing: the
	// flow the receiver must still hold).
	FlowID uint64
	// Seq is the first frame sequence number in a voice batch.
	Seq uint32
	// Frames is the opaque voice payload batch.
	Frames []byte
	// LeaseTTL is the bootstrap's surrogate-lease lifetime
	// (MsgSurrogateHeartbeatReply). Zero means leases are disabled:
	// registrations never expire.
	LeaseTTL time.Duration
	// Degraded marks a MsgGetCloseSetReply a member produced without its
	// surrogate (close set unavailable): the caller should fall back to a
	// direct call rather than treating the setup as failed.
	Degraded bool
	// MediaAddr is the sender's STUN-discovered external media address
	// (MsgMediaSetup carries the caller's, MsgMediaSetupReply the
	// callee's).
	MediaAddr Addr
	// MediaToken is the voice-flow identity: the packet SSRC both call
	// endpoints stamp, and the token they bind on the voice relay when
	// the ladder falls through to its relay rung (MsgMediaSetup).
	MediaToken uint32
	// MediaRelay is the voice-relay media address both endpoints should
	// bind on the ladder's last rung (MsgMediaSetup): the caller's
	// configured relay, or the media plane of the relay the session
	// monitor switched to. Empty means the ladder has no relay rung.
	MediaRelay Addr
	// MediaEpoch orders the handshake rounds of one media flow
	// (MsgMediaSetup; 0 is the call's first): the callee acts once per
	// epoch and re-answers duplicates, making the handshake idempotent
	// under control retries.
	MediaEpoch uint32
	// ProbeDsts lists the far-leg destinations of a MsgProbeBatch; an
	// empty Addr measures the path to the receiver itself.
	ProbeDsts []Addr
	// ProbeRTTs answers a MsgProbeBatch (MsgProbeBatchReply), aligned
	// index-for-index with the request's ProbeDsts; -1 marks a
	// destination that did not answer.
	ProbeRTTs []time.Duration
	// Timeout is the caller's remaining budget for the exchange (zero:
	// none), a duration so that it needs no clock shared with the
	// receiver. Mem, Chaos and TCP each give up when it runs out.
	Timeout time.Duration
}
