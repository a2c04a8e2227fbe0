// Package metrics collects the observables the paper's figures plot:
// per-node clock drift against reference time, protocol-state timelines
// (and the availability derived from them), and cumulative counters
// (Time Authority references, AEXs).
package metrics

import (
	"fmt"
	"io"
	"iter"
	"sort"
	"strings"
	"time"

	"triadtime/internal/core"
	"triadtime/internal/engine"
	"triadtime/internal/simtime"
)

// CounterSnapshot is one node's cumulative protocol counters at a
// point in time, named for table rendering. It carries the engine's
// uniform counter set, so original and hardened nodes snapshot
// identically — hardening-only columns simply stay zero on original
// nodes.
type CounterSnapshot struct {
	Node string
	engine.Counters
}

// Summary renders the snapshot as one table line. The hardened
// columns (chimer rejections, RTT rejections, probes) are always
// present so scenario outputs stay column-stable; gossip tallies are
// appended only when the gossip layer was active.
func (s CounterSnapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: ta_refs=%d peer_untaints=%d served=%d rejected_peers=%d rtt_rejections=%d probes=%d probe_failures=%d",
		s.Node, s.TAReferences, s.PeerUntaints, s.Served,
		s.RejectedPeers, s.RTTRejections, s.Probes, s.ProbeFailures)
	if s.GossipSent != 0 || s.GossipReceived != 0 || s.GossipAdoptions != 0 {
		fmt.Fprintf(&b, " gossip_sent=%d gossip_received=%d gossip_adoptions=%d",
			s.GossipSent, s.GossipReceived, s.GossipAdoptions)
	}
	if s.QuorumAccepts != 0 || s.QuorumNoMajority != 0 || s.FalseTickers != 0 || s.Holdovers != 0 {
		fmt.Fprintf(&b, " quorum_accepts=%d quorum_no_majority=%d false_tickers=%d holdovers=%d",
			s.QuorumAccepts, s.QuorumNoMajority, s.FalseTickers, s.Holdovers)
	}
	return b.String()
}

// WriteCountersCSV emits counter snapshots as CSV, one row per node.
func WriteCountersCSV(w io.Writer, snaps []CounterSnapshot) error {
	if _, err := fmt.Fprintln(w, "node,ta_refs,peer_untaints,served,rejected_peers,rtt_rejections,probes,probe_failures,gossip_sent,gossip_received,gossip_adoptions,quorum_accepts,quorum_no_majority,false_tickers,holdovers"); err != nil {
		return err
	}
	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Node, s.TAReferences, s.PeerUntaints, s.Served,
			s.RejectedPeers, s.RTTRejections, s.Probes, s.ProbeFailures,
			s.GossipSent, s.GossipReceived, s.GossipAdoptions,
			s.QuorumAccepts, s.QuorumNoMajority, s.FalseTickers, s.Holdovers); err != nil {
			return err
		}
	}
	return nil
}

// DriftPoint is one sample of a node's clock error against reference
// time.
type DriftPoint struct {
	// RefSeconds is the reference time of the sample.
	RefSeconds float64
	// DriftSeconds is nodeClock - referenceTime, in seconds. Positive
	// means the node's clock is ahead of (faster than) reference time.
	DriftSeconds float64
	// State is the node's protocol state at the sample.
	State core.State
}

// DriftSeries is one node's drift time-series (Figures 2a, 3a, 4, 5, 6a).
type DriftSeries struct {
	Node   string
	Points []DriftPoint
}

// Add appends a sample.
func (s *DriftSeries) Add(p DriftPoint) { s.Points = append(s.Points, p) }

// Available returns only the samples taken while the node was serving
// (state OK, or the quorum variant's Degraded holdover) — the points
// the paper's figures plot.
func (s *DriftSeries) Available() []DriftPoint {
	out := make([]DriftPoint, 0, len(s.Points))
	for _, p := range s.Points {
		if p.State.Serving() {
			out = append(out, p)
		}
	}
	return out
}

// DriftRatePerSecond estimates the series' drift rate (s/s) by least
// squares over the available samples between two reference times.
// Returns ok=false with fewer than two samples in range.
func (s *DriftSeries) DriftRatePerSecond(fromSec, toSec float64) (float64, bool) {
	var sx, sy, sxx, sxy float64
	n := 0
	for _, p := range s.Available() {
		if p.RefSeconds < fromSec || p.RefSeconds > toSec {
			continue
		}
		sx += p.RefSeconds
		sy += p.DriftSeconds
		sxx += p.RefSeconds * p.RefSeconds
		sxy += p.RefSeconds * p.DriftSeconds
		n++
	}
	if n < 2 {
		return 0, false
	}
	den := sxx - sx*sx/float64(n)
	if den == 0 {
		return 0, false
	}
	return (sxy - sx*sy/float64(n)) / den, true
}

// StateChange is one protocol-state transition.
type StateChange struct {
	At    simtime.Instant
	State core.State
}

// StateTimeline records a node's state transitions (Figure 3b) and
// derives availability from them.
type StateTimeline struct {
	changes []StateChange
}

// Record appends a transition. Transitions must arrive in time order.
func (tl *StateTimeline) Record(at simtime.Instant, s core.State) {
	if n := len(tl.changes); n > 0 && at < tl.changes[n-1].At {
		panic(fmt.Sprintf("metrics: out-of-order state change at %v", at))
	}
	tl.changes = append(tl.changes, StateChange{At: at, State: s})
}

// Changes returns the recorded transitions (copy).
func (tl *StateTimeline) Changes() []StateChange {
	cp := make([]StateChange, len(tl.changes))
	copy(cp, tl.changes)
	return cp
}

// Segment is a maximal interval spent in one state.
type Segment struct {
	From, To simtime.Instant
	State    core.State
}

// Segments renders the timeline as contiguous segments over [from, to].
// Before the first recorded change the node is considered StateInit.
func (tl *StateTimeline) Segments(from, to simtime.Instant) []Segment {
	var segs []Segment
	for seg := range tl.segments(from, to) {
		segs = append(segs, seg)
	}
	return segs
}

// segments yields what Segments returns, one segment at a time.
func (tl *StateTimeline) segments(from, to simtime.Instant) iter.Seq[Segment] {
	return func(yield func(Segment) bool) {
		if to < from {
			from, to = to, from
		}
		cur := core.StateInit
		curFrom := from
		for _, c := range tl.changes {
			if c.At <= from {
				cur = c.State
				continue
			}
			if c.At > to {
				break
			}
			if c.At > curFrom && !yield(Segment{From: curFrom, To: c.At, State: cur}) {
				return
			}
			cur = c.State
			curFrom = c.At
		}
		if to > curFrom {
			yield(Segment{From: curFrom, To: to, State: cur})
		}
	}
}

// Availability is the fraction of [from, to] spent serving timestamps
// (state OK, or the quorum holdover state Degraded) — the paper's
// §IV-A.2 availability metric.
func (tl *StateTimeline) Availability(from, to simtime.Instant) float64 {
	if to <= from {
		return 0
	}
	var ok time.Duration
	for seg := range tl.segments(from, to) {
		if seg.State.Serving() {
			ok += seg.To.Sub(seg.From)
		}
	}
	return float64(ok) / float64(to.Sub(from))
}

// CountPoint is one sample of a cumulative counter.
type CountPoint struct {
	RefSeconds float64
	Count      int
}

// CountSeries is a cumulative counter over time: TA references received
// (Figure 2b) or AEXs experienced (Figure 6b).
type CountSeries struct {
	Node   string
	Points []CountPoint
}

// Add appends a sample.
func (s *CountSeries) Add(p CountPoint) { s.Points = append(s.Points, p) }

// Final returns the last recorded count (0 if empty).
func (s *CountSeries) Final() int {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Count
}

// WriteDriftCSV emits drift series as CSV: time, one drift column per
// node (empty when unavailable). Series are merged on sample times.
func WriteDriftCSV(w io.Writer, series []*DriftSeries) error {
	if _, err := fmt.Fprint(w, "ref_seconds"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",drift_s_%s", s.Node); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	// Collect the sorted, deduplicated union of sample times. A slice
	// with sort+compact (rather than a set map) keeps the iteration
	// deterministic.
	var times []float64
	for _, s := range series {
		for _, p := range s.Points {
			times = append(times, p.RefSeconds)
		}
	}
	sort.Float64s(times)
	uniq := times[:0]
	for _, t := range times {
		if len(uniq) == 0 || uniq[len(uniq)-1] != t {
			uniq = append(uniq, t)
		}
	}
	times = uniq
	// Index points by time per series.
	idx := make([]map[float64]DriftPoint, len(series))
	for i, s := range series {
		idx[i] = make(map[float64]DriftPoint, len(s.Points))
		for _, p := range s.Points {
			idx[i][p.RefSeconds] = p
		}
	}
	for _, tm := range times {
		if _, err := fmt.Fprintf(w, "%.3f", tm); err != nil {
			return err
		}
		for i := range series {
			p, ok := idx[i][tm]
			if !ok || !p.State.Serving() {
				if _, err := fmt.Fprint(w, ","); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, ",%.6f", p.DriftSeconds); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCountCSV emits count series as CSV with one column per node.
func WriteCountCSV(w io.Writer, series []*CountSeries) error {
	if _, err := fmt.Fprint(w, "ref_seconds"); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, ",count_%s", s.Node); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	n := 0
	for _, s := range series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
	}
	for row := 0; row < n; row++ {
		wrote := false
		for _, s := range series {
			if row >= len(s.Points) {
				continue
			}
			if !wrote {
				if _, err := fmt.Fprintf(w, "%.3f", s.Points[row].RefSeconds); err != nil {
					return err
				}
				wrote = true
			}
		}
		for _, s := range series {
			if row < len(s.Points) {
				if _, err := fmt.Fprintf(w, ",%d", s.Points[row].Count); err != nil {
					return err
				}
			} else if _, err := fmt.Fprint(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
