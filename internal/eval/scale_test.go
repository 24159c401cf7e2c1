package eval

import (
	"strings"
	"testing"
	"time"
)

// scaleTestConfig is the shared small deployment: big enough to exercise
// every path the harness promises (latent cross-transit calls rescued by
// multihomed relay clusters, same-transit direct calls, surrogate churn
// with lease expiry and re-election, member rejoin under a fresh
// address), small enough for tier-1.
func scaleTestConfig(shards int) ScaleConfig {
	return ScaleConfig{
		Nodes:          240,
		Shards:         shards,
		Clusters:       8,
		Transits:       4,
		RelayClusters:  2,
		Calls:          28,
		Leavers:        6,
		LeaseTTL:       time.Second,
		Seed:           7,
		RecordOutcomes: true,
	}
}

// TestScaleGoldenAcrossShards is the PR's differential guard: the same
// deployment must produce byte-identical protocol outcomes at 1, 4 and
// 16 shards (conservative-lookahead parallel mode is an execution
// strategy, not a semantics change), and twice at the same shard count
// (plain run-to-run determinism).
func TestScaleGoldenAcrossShards(t *testing.T) {
	digests := make(map[int]string)
	for _, shards := range []int{1, 4, 16} {
		rep, err := RunScale(scaleTestConfig(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		digests[shards] = rep.GoldenDigest()
	}
	for _, shards := range []int{4, 16} {
		if digests[shards] != digests[1] {
			t.Errorf("shards=%d diverges from sequential run:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
				shards, digests[1], shards, digests[shards])
		}
	}
	again, err := RunScale(scaleTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if again.GoldenDigest() != digests[4] {
		t.Error("same config and seed produced different outcomes across runs")
	}
}

// TestScaleWorkloadShape checks the deployment exercises what it claims:
// latent calls exist and most get relay-rescued under LatT, direct calls
// stay direct, and churn shows up as degraded or failed outcomes without
// wiping out the workload.
func TestScaleWorkloadShape(t *testing.T) {
	rep, err := RunScale(scaleTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Calls < 20 {
		t.Fatalf("workload collapsed: only %d calls planned", rep.Calls)
	}
	if rep.Latent == 0 {
		t.Error("no latent calls: cross-transit pairing is broken")
	}
	if rep.Relayed == 0 {
		t.Error("no relayed calls: relay clusters never intersected a close set")
	}
	if rep.Relayed > 0 && (rep.MeanRelayEst <= 0 || rep.MeanRelayEst >= scaleLatT) {
		t.Errorf("mean relay estimate %v outside (0, LatT=%v)", rep.MeanRelayEst, scaleLatT)
	}
	if rep.Failed == rep.Calls {
		t.Error("every call failed")
	}
	if rep.Events == 0 {
		t.Error("no events executed")
	}
	for _, line := range rep.Outcomes {
		if strings.Contains(line, "caller not joined") {
			t.Errorf("planned caller never joined: %s", line)
		}
	}
}

// TestScaleBytesPerNode audits the compact-node-state budget at a
// population where per-node state dominates fixed overheads: 1,611
// bytes/node measured against ROADMAP item 6's 2 KB. It exists to catch
// regressions that reintroduce per-node kilobytes — an eager retry-jitter
// generator (4.9 KB of the 7,182 this read while NewNode built one),
// eager role maps, un-interned cluster keys — not to pin an exact size.
func TestScaleBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("10^4-node deployment: skipped under -short")
	}
	cfg := ScaleConfig{
		Nodes:        10_000,
		Shards:       4,
		Calls:        40,
		Leavers:      20,
		Seed:         11,
		MeasureBytes: true,
	}
	rep, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesPerNode <= 0 {
		t.Fatal("bytes-per-node audit produced nothing")
	}
	const budget = 2048
	if rep.BytesPerNode > budget {
		t.Errorf("resident state %.0f bytes/node exceeds the %d-byte budget", rep.BytesPerNode, budget)
	}
	t.Logf("nodes=%d events=%d bytes/node=%.0f relayed=%d/%d latent",
		rep.Nodes, rep.Events, rep.BytesPerNode, rep.Relayed, rep.Latent)
}
