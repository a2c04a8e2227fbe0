package experiment

import (
	"fmt"
	"math"
	"time"

	"triadtime/internal/simtime"
)

// LatencyResult is the client's view of a Triad node's availability:
// instead of the time-based availability of §IV-A.2, it measures what
// an application experiences — how long a TrustedNow call effectively
// takes when unavailability forces retries.
type LatencyResult struct {
	Node string
	// FirstTry is the fraction of requests served without retrying.
	FirstTry float64
	// P50, P99, Max are retry-until-success latencies. A request that
	// succeeds immediately counts as zero latency (the simulation does
	// not model in-process call cost).
	P50, P99, Max time.Duration
	// Requests is the number of client requests issued.
	Requests int
}

// Summary renders the row.
func (r LatencyResult) Summary() string {
	return fmt.Sprintf("%s: first-try %6.2f%%  retry latency p50=%v p99=%v max=%v (n=%d)",
		r.Node, r.FirstTry*100, r.P50, r.P99, r.Max, r.Requests)
}

// retryGrid accumulates retry-until-success latencies in streaming
// form. Every latency is an exact multiple of the retry interval
// (retries are scheduled at fixed offsets from the request), so a
// count per multiple loses nothing: quantiles computed from the grid
// are byte-identical to sorting the retained samples, at O(max
// retries) memory instead of O(requests).
type retryGrid struct {
	step   time.Duration
	counts []int
	n      int
}

// add records one latency of k retry steps.
func (g *retryGrid) add(k int) {
	for len(g.counts) <= k {
		g.counts = append(g.counts, 0)
	}
	g.counts[k]++
	g.n++
}

// orderStat returns the i-th (0-indexed) latency in sorted order.
func (g *retryGrid) orderStat(i int) float64 {
	cum := 0
	for k, c := range g.counts {
		cum += c
		if i < cum {
			return float64(int64(k) * int64(g.step))
		}
	}
	return 0 // unreachable for i < n
}

// quantile mirrors stats.CDF.Quantile over the grid: nearest-rank
// interpolation at pos = q·(n-1), so results match the retained-slice
// implementation exactly.
func (g *retryGrid) quantile(q float64) float64 {
	if g.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return g.orderStat(0)
	}
	if q >= 1 {
		return g.orderStat(g.n - 1)
	}
	pos := q * float64(g.n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return g.orderStat(lo)
	}
	frac := pos - float64(lo)
	return g.orderStat(lo)*(1-frac) + g.orderStat(hi)*frac
}

// RunServingLatency drives a client workload against node 1 of a
// fault-free Triad-like cluster: one request per period, retrying
// every retryEvery until served.
func RunServingLatency(seed uint64, duration, period, retryEvery time.Duration) (*LatencyResult, error) {
	res := &LatencyResult{Node: "node1"}
	grid := &retryGrid{step: retryEvery}
	var c *Cluster
	var issue func()
	issue = func() {
		node := c.Nodes[0]
		start := c.Sched.Now()
		res.Requests++
		var attempt func()
		attempt = func() {
			if _, err := node.TrustedNow(); err == nil {
				waited := c.Sched.Now().Sub(start)
				grid.add(int(waited / retryEvery))
				if waited == 0 {
					res.FirstTry++
				}
				return
			}
			c.Sched.After(simtime.FromDuration(retryEvery), attempt)
		}
		attempt()
		c.Sched.After(simtime.FromDuration(period), issue)
	}
	if _, err := Run(Scenario{
		ClusterConfig: ClusterConfig{Seed: seed},
		Env:           []Env{EnvTriadLike},
		// Start the workload after the cluster has had a chance to
		// calibrate once; initial-calibration latency is reported by the
		// availability table instead.
		Steps:    []Step{{At: 10 * time.Second, Do: func(cl *Cluster) { c = cl; issue() }}},
		Duration: duration,
	}); err != nil {
		return nil, err
	}

	if res.Requests > 0 {
		res.FirstTry /= float64(res.Requests)
	}
	res.P50 = time.Duration(grid.quantile(0.5))
	res.P99 = time.Duration(grid.quantile(0.99))
	res.Max = time.Duration(grid.quantile(1))
	return res, nil
}
