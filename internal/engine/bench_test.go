// Engine-level dispatch benchmarks: the same shared engine drives both
// protocol variants, so the baseline/hardened deltas below price the
// policies alone — the Marzullo gather-and-filter cycle and the
// windowed calibration state against the original adopt-if-ahead path.
package engine_test

import (
	"testing"
	"time"

	"triadtime/internal/core"
	"triadtime/internal/experiment"
	"triadtime/internal/resilient"
)

// benchCluster builds a calibrated three-node cluster with every
// wall-clock-free background source disabled (monitors, machine AEXs,
// the hardened deadline), so each benchmark iteration's scheduler work
// is exactly the dispatch path under measurement.
func benchCluster(b *testing.B, hardened bool) *experiment.Cluster {
	b.Helper()
	protocol := experiment.Original(func(cfg *core.Config) { cfg.DisableMonitor = true })
	if hardened {
		protocol = experiment.Hardened(func(cfg *resilient.Config) {
			cfg.DisableMonitor = true
			cfg.DisableDeadline = true
			cfg.CalibWindow = time.Second
		})
	}
	c, err := experiment.Run(experiment.Scenario{
		ClusterConfig: experiment.ClusterConfig{Seed: 11, DisableMachineAEX: true, Protocol: protocol},
		Duration:      30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, n := range c.Nodes {
		if n.State() != core.StateOK {
			b.Fatalf("node %d not calibrated: %v", i+1, n.State())
		}
	}
	return c
}

// benchRecoveryCycle drives one full taint -> peer-gather -> untaint
// dispatch cycle per iteration: an AEX on node 1, the sealed
// PeerTimeRequest broadcast, both peers' replies, and the filter
// decision (adopt-if-ahead vs Marzullo).
func benchRecoveryCycle(b *testing.B, hardened bool) {
	c := benchCluster(b, hardened)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Platforms[0].FireAEX()
		c.RunFor(50 * time.Millisecond)
		if c.Nodes[0].State() != core.StateOK {
			b.Fatalf("node 1 did not recover: %v", c.Nodes[0].State())
		}
	}
	b.StopTimer()
	if n := c.Nodes[0].Counters(); n.PeerUntaints+n.TAReferences < b.N {
		b.Fatalf("recovered %d times without references: %+v", b.N, n)
	}
}

func BenchmarkRecoveryDispatchBaseline(b *testing.B) { benchRecoveryCycle(b, false) }
func BenchmarkRecoveryDispatchHardened(b *testing.B) { benchRecoveryCycle(b, true) }

// benchTrustedNow prices the serving path: one monotonic clock read
// per iteration on a calibrated node. Identical engine code for both
// variants — any delta is noise, which makes this the control.
func benchTrustedNow(b *testing.B, hardened bool) {
	c := benchCluster(b, hardened)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Nodes[0].TrustedNow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrustedNowBaseline(b *testing.B) { benchTrustedNow(b, false) }
func BenchmarkTrustedNowHardened(b *testing.B) { benchTrustedNow(b, true) }
