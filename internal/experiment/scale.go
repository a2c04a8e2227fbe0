package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/simnet"
)

// Churn schedule for the scale sweeps: churned honest nodes go dark
// for churnDark each, staggered churnGap apart from churnStart, so
// windows are deterministic and non-overlapping at small sizes while
// overlapping progressively in large clusters.
const (
	churnStart = 60 * time.Second
	churnGap   = 20 * time.Second
	churnDark  = 15 * time.Second
)

// ScaleRow reports one cluster size's behaviour under the F-
// propagation scenario (all nodes under Triad-like AEXs, one
// compromised). Larger clusters give a tainted node more honest donors
// — but the adopt-the-highest policy means a single fast clock still
// wins every race it answers first, so infection persists at scale.
type ScaleRow struct {
	Nodes int
	// InfectedHonest counts honest nodes that skipped > 1s forward.
	InfectedHonest int
	// FirstInfection is when the first honest node skipped (0 if none).
	FirstInfection time.Duration
	// MinAvailability is the worst availability across honest nodes.
	MinAvailability float64
	// TARefsPerNode is the mean TA reference count across honest nodes
	// (peer redundancy should keep it low at every size).
	TARefsPerNode float64
}

// Summary renders the row.
func (r ScaleRow) Summary() string {
	first := "-"
	if r.FirstInfection > 0 {
		first = r.FirstInfection.Round(time.Second).String()
	}
	return fmt.Sprintf("n=%2d  infected honest %2d/%2d  first infection %-6s  min honest avail %6.2f%%  TA refs/node %.1f",
		r.Nodes, r.InfectedHonest, r.Nodes-1, first, r.MinAvailability*100, r.TARefsPerNode)
}

// RunClusterScale sweeps cluster sizes through the F- scenario with
// node N compromised and everyone under Triad-like AEXs from the
// start. churn is the fraction of honest nodes that additionally cycle
// offline mid-run (0 = none, the paper-style fault-free sweep): each
// churned node's traffic is blackholed for churnDark on a staggered
// deterministic schedule. Each size is an independent streaming-mode
// simulation; the sweep fans across the runner's worker pool with rows
// collected in size order. Cancelling ctx abandons unstarted sizes and
// returns its error.
func RunClusterScale(ctx context.Context, seed uint64, sizes []int, churn float64, duration time.Duration) ([]ScaleRow, error) {
	if len(sizes) == 0 {
		sizes = []int{3, 5, 7, 9}
	}
	tasks := make([]runner.Task[ScaleRow], len(sizes))
	for t, n := range sizes {
		n := n
		tasks[t] = runner.Task[ScaleRow]{
			Name: fmt.Sprintf("cluster scale n=%d", n),
			Run: func(context.Context) (ScaleRow, error) {
				return runClusterScaleOne(seed, n, churn, duration)
			},
		}
	}
	return runner.Run(ctx, runner.Config{}, tasks).Values()
}

// churn is the set-up step that blackholes the first round(frac·honest)
// honest nodes on the staggered schedule. The topology driver churns
// region members with it too.
func churn(frac float64, honest int) Step {
	return Step{Do: func(c *Cluster) {
		k := int(math.Round(frac * float64(honest)))
		for j := 0; j < k; j++ {
			from := churnStart + time.Duration(j)*churnGap
			blackhole([]simnet.Addr{c.Nodes[j].Addr()}, from, from+churnDark).Do(c)
		}
	}}
}

// runClusterScaleOne measures one cluster size under the F- scenario.
// The cluster runs in streaming mode: infection detection and
// availability reduce per-tick into the node probes, so memory stays
// fixed per node no matter how long or large the run.
func runClusterScaleOne(seed uint64, n int, frac float64, duration time.Duration) (ScaleRow, error) {
	c, err := Run(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed, Nodes: n, Streaming: true},
		Env:           []Env{EnvTriadLike},
		Steps:         []Step{DelayAttack(n-1, attack.ModeFMinus), churn(frac, n-1)},
		Duration:      duration,
	})
	if err != nil {
		return ScaleRow{}, err
	}

	row := ScaleRow{Nodes: n, MinAvailability: 1}
	var taSum float64
	for i := 0; i < n-1; i++ {
		if p := c.Probes[i]; p.Infected {
			row.InfectedHonest++
			at := p.FirstInfection()
			if row.FirstInfection == 0 || at < row.FirstInfection {
				row.FirstInfection = at
			}
		}
		row.MinAvailability = math.Min(row.MinAvailability, c.Availability(i))
		taSum += float64(c.Nodes[i].TAReferences())
	}
	row.TARefsPerNode = taSum / float64(n-1)
	c.ReleaseProbes()
	return row, nil
}
