package eval

import (
	"fmt"
	"testing"
)

// The stabilization experiment runs entirely on a virtual clock, so a
// seed fully determines every measurement: two runs with the same
// config must render byte-identical reports. It mirrors the
// formatAll golden checks in determinism_test.go but exercises the live
// protocol stack (transport latency, chaos windows, leases, retries)
// rather than the analytic evaluation harness.

func TestStabilizationVirtualTimeDeterministic(t *testing.T) {
	run := func() string {
		res, err := RunStabilization(DefaultStabilizationConfig(stabilizationPaths()))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res)
	}
	golden := run()
	for i := 0; i < 2; i++ {
		if got := run(); got != golden {
			t.Fatalf("stabilization rerun %d diverged:\n--- golden ---\n%s\n--- rerun ---\n%s",
				i, golden, got)
		}
	}
}
