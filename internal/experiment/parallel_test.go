package experiment

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"triadtime/internal/experiment/runner"
	"triadtime/internal/simtime"
	"triadtime/internal/trace"
)

// fig2Trace runs the Figure 2a scenario with a JSONL recorder attached
// and returns the recorded byte stream — the run's deterministic
// fingerprint.
func fig2Trace(seed uint64, duration time.Duration) ([]byte, error) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(nil, &buf)
	sc := fig2(seed, duration)
	sc.Trace = rec
	if _, err := RunFigure(sc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestGoldenTraceSerialVsParallel is the golden-trace determinism
// battery: the Fig 2a scenario run serially and through the parallel
// runner must produce byte-identical JSONL traces. Two seeds run
// concurrently in the parallel pass, so any cross-run state leak
// (shared RNG, recorder, or cluster state) would corrupt at least one
// of the traces.
func TestGoldenTraceSerialVsParallel(t *testing.T) {
	const dur = 2 * time.Minute
	seeds := []uint64{7, 21}

	golden := make(map[uint64][]byte, len(seeds))
	for _, seed := range seeds {
		g, err := fig2Trace(seed, dur)
		if err != nil {
			t.Fatalf("serial seed %d: %v", seed, err)
		}
		if len(g) == 0 {
			t.Fatalf("serial seed %d recorded no events", seed)
		}
		golden[seed] = g
	}

	tasks := make([]runner.Task[[]byte], len(seeds))
	for i, seed := range seeds {
		seed := seed
		tasks[i] = runner.Task[[]byte]{
			Name: fmt.Sprintf("fig2 trace seed %d", seed),
			Run:  func(context.Context) ([]byte, error) { return fig2Trace(seed, dur) },
		}
	}
	traces, err := runner.Run(context.Background(), runner.Config{Workers: len(seeds)}, tasks).Values()
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		if !bytes.Equal(traces[i], golden[seed]) {
			t.Errorf("seed %d: parallel trace differs from serial golden (%d vs %d bytes)",
				seed, len(traces[i]), len(golden[seed]))
		}
	}
}

// monotonicViolations polls every node's TrustedNow once per 100ms of
// simulated time and counts violations of the strict-monotonicity
// serving guarantee between consecutive successful serves.
func monotonicViolations(seed uint64, duration time.Duration) (int, error) {
	c, err := NewCluster(ClusterConfig{Seed: seed})
	if err != nil {
		return 0, err
	}
	for i := range c.Nodes {
		c.SetEnv(i, EnvTriadLike)
	}
	last := make([]int64, len(c.Nodes))
	violations := 0
	var poll func()
	poll = func() {
		for i, n := range c.Nodes {
			ts, err := n.TrustedNow()
			if err != nil {
				continue
			}
			if last[i] != 0 && ts <= last[i] {
				violations++
			}
			last[i] = ts
		}
		c.Sched.After(simtime.FromDuration(100*time.Millisecond), poll)
	}
	c.Sched.At(simtime.FromDuration(100*time.Millisecond), poll)
	c.Start()
	c.RunFor(duration)
	return violations, nil
}

// TestMonotonicServingUnderParallelRunner property-tests the
// monotonic-serving invariant for runs executed through the parallel
// runner at randomized seeds and every interesting worker count: a
// node's served timestamps must be strictly increasing regardless of
// how many sibling simulations share the process.
func TestMonotonicServingUnderParallelRunner(t *testing.T) {
	workerCounts := []int{1, 2, runtime.NumCPU()}
	prop := func(seedByte uint8) bool {
		base := uint64(seedByte)*31 + 1
		seeds := runner.Seeds(base, 3)
		for _, workers := range workerCounts {
			tasks := make([]runner.Task[int], len(seeds))
			for i, seed := range seeds {
				seed := seed
				tasks[i] = runner.Task[int]{
					Name: fmt.Sprintf("monotonic seed %d", seed),
					Run: func(context.Context) (int, error) {
						return monotonicViolations(seed, 2*time.Minute)
					},
				}
			}
			counts, err := runner.Run(context.Background(), runner.Config{Workers: workers}, tasks).Values()
			if err != nil {
				t.Logf("workers=%d: %v", workers, err)
				return false
			}
			for i, v := range counts {
				if v != 0 {
					t.Logf("workers=%d seed=%d: %d monotonicity violations", workers, seeds[i], v)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 4}
	if testing.Short() {
		cfg.MaxCount = 1
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
