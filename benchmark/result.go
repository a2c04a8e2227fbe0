package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json at
// the root of the repository lists the same names, units and
// directions; a self-test holds the two together.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system would see. Every workload
// reports every one of them; see README.md for what each means on a
// simulation workload, where a "request" is one pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_unit", "us", "lower"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what single layers did, from the traced run. A layer a
// workload does not touch reports 0.
var perLayer = []metricDef{
	{"transport.recv_ns_per_dgram", "ns", "lower"},
	{"transport.send_ns_per_dgram", "ns", "lower"},
	{"transport.recv_dgrams_per_call", "count", "higher"},
	{"transport.send_errors", "count", "lower"},
	{"transport.oversize_drops", "count", "higher"},
	{"wire.open_ns", "ns", "lower"},
	{"wire.seal_ns", "ns", "lower"},
	{"wire.codec_ns", "ns", "lower"},
	{"wire.open_reject_ns", "ns", "lower"},
	{"wire.protocol_seal_open_ns", "ns", "lower"},
	{"serve.submit_ns", "ns", "lower"},
	{"serve.submit_shed_ns", "ns", "lower"},
	{"serve.drain_ns_per_req", "ns", "lower"},
	{"serve.reqs_per_batch", "count", "higher"},
	{"serve.queue_wait_p50_us", "us", "lower"},
	{"serve.queue_wait_p99_us", "us", "lower"},
	{"serve.received", "count", "higher"},
	{"serve.served", "count", "higher"},
	{"serve.shed_queue_full", "count", "lower"},
	{"serve.shed_rate_limited", "count", "lower"},
	{"serve.unavailable", "count", "lower"},
	{"engine.trusted_now_ns", "ns", "lower"},
	{"tsa.issue_ns", "ns", "lower"},
	{"tsa.tokens_issued", "count", "higher"},
	{"commit.lock_ns", "ns", "lower"},
	{"commit.unlock_ns", "ns", "lower"},
	{"commit.status_ns", "ns", "lower"},
	{"commit.flush_ns", "ns", "lower"},
	{"commit.locks_issued", "count", "higher"},
	{"commit.unlocks_granted", "count", "higher"},
	{"commit.unlocks_refused_early", "count", "higher"},
	{"commit.forged_tokens", "count", "lower"},
	{"commit.persist_errors", "count", "lower"},
	{"facade.boot_s", "s", "lower"},
	{"facade.calibrate_s", "s", "lower"},
	{"facade.warmup_s", "s", "lower"},
	{"process.allocs_per_unit", "count", "lower"},
	{"process.alloc_bytes_per_unit", "B", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.vol_ctx_switches_per_unit", "count", "lower"},
	{"process.sys_cpu_share", "ratio", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.cpu_us_per_unit", "us", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"loadgen.lost", "count", "lower"},
	{"loadgen.bad_response", "count", "lower"},
	{"host.calib_ns", "ns", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.pending_mean", "count", "lower"},
	{"sim.step_ns", "ns", "lower"},
	{"simnet.sent", "count", "lower"},
	{"simnet.delivered", "count", "lower"},
	{"simnet.dropped", "count", "lower"},
	{"simnet.send_deliver_ns", "ns", "lower"},
	{"engine.ta_refs", "count", "lower"},
	{"engine.peer_untaints", "count", "higher"},
	{"engine.served", "count", "higher"},
	{"engine.probes", "count", "lower"},
	{"engine.holdovers", "count", "lower"},
	{"engine.no_majority", "count", "lower"},
	{"enclave.aex_count", "count", "lower"},
	{"marzullo.intersect_ns", "ns", "lower"},
	{"stats.sketch_add_ns", "ns", "lower"},
	{"experiment.probe_observe_ns", "ns", "lower"},
	{"experiment.build_us_per_node", "us", "lower"},
	{"experiment.cpu_ns_per_event", "ns", "lower"},
	{"runner.parallel_efficiency", "ratio", "higher"},
	{"budget.stage_sum_ns_per_unit", "ns", "lower"},
	{"budget.coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// value is one metric of one run. spread, when known, is the
// inter-quartile distance across the run's segments as a share of their
// median.
type value struct {
	v, spread float64
	hasSpread bool
}

// series is one timing metric's segments, over all boots of a run:
// every one of them, and those that count.
type series struct{ all, counted []float64 }

// minCounted is the fewest segments a timing metric is read from.
const minCounted = 8

// result is everything one run of one workload measured.
type result struct {
	workload          string
	opt               options
	vals              map[string]value
	readings          map[string][]float64 // per metric, one reading per boot
	series            map[string]*series   // per timing metric, its segments
	attempted, failed int
	guards, warnings  []string
	spans             []span
}

func newResult(workload string, opt options) *result {
	return &result{workload: workload, opt: opt, vals: map[string]value{}, readings: map[string][]float64{}, series: map[string]*series{}}
}

// put records a metric the run has one number for: a count, or
// something the traced boot measured.
func (r *result) put(name string, v float64) { r.vals[name] = value{v: v} }

// boot records one boot's reading of a metric. The run reports the
// median over its boots.
func (r *result) boot(name string, v float64) {
	r.readings[name] = append(r.readings[name], v)
}

// bootPeak records one boot's peak resident set. A peak is a maximum,
// so the run reports the highest over its boots: where a heap's
// high-water mark settles depends on when a collection happens to
// start, and the more boots there are the surer one of them finds the
// top.
func (r *result) bootPeak(hwmKB int64) {
	r.put("peak_rss_mb", max(r.vals["peak_rss_mb"].v, float64(hwmKB)/1024))
}

// segments records one boot's segments of a timing metric. counts says
// which of them count — for a live boot, those in which the generator
// held its schedule — and nil that all do. The run reads the metric
// from the counted segments of all its boots together (see quiet).
func (r *result) segments(name string, xs []float64, counts []bool) {
	s := r.series[name]
	if s == nil {
		s = &series{}
		r.series[name] = s
	}
	s.all = append(s.all, xs...)
	for i, x := range xs {
		if counts == nil || counts[i] {
			s.counted = append(s.counted, x)
		}
	}
}

// foldBoots turns what the boots recorded into the run's values.
func (r *result) foldBoots() {
	for name, vs := range r.readings {
		r.vals[name] = value{v: median(vs)}
	}
	for _, name := range slices.Sorted(maps.Keys(r.series)) {
		s := r.series[name]
		xs := s.counted
		if len(xs) < minCounted {
			// Nothing to choose from: read every segment, and say so.
			xs = s.all
			r.warn("%s: only %d of %d segments count; read from all of them", name, len(s.counted), len(s.all))
		}
		v, spread := quiet(xs)
		r.vals[name] = value{v: v, spread: spread, hasSpread: true}
	}
}

// guard records that the program under test answered wrongly: the run
// reports "correct": false and exits non-zero.
func (r *result) guard(format string, args ...any) {
	r.guards = append(r.guards, fmt.Sprintf(format, args...))
}

// warn records that the measurement was disturbed (a late generator, a
// stalled host). The run still counts — ten of them are read by their
// median — but says so.
func (r *result) warn(format string, args ...any) {
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
}

// traceFrom asks a subject that has been measured for its trace and
// takes the per-layer numbers and spans it answers with.
func (r *result) traceFrom(p *subjectProc) error {
	rep, err := p.call("trace")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for name, v := range rep.Layers {
		r.put(name, v)
	}
	r.spans = rep.Spans
	return nil
}

// printLines writes one "workload metric value unit" line per metric.
func (r *result) printLines(w io.Writer) {
	line := func(defs []metricDef) {
		for _, d := range defs {
			v := r.vals[d.Name] // a layer the workload does not touch reads 0
			// Counts print exactly; measurements to six figures.
			num := strconv.FormatFloat(v.v, 'g', 6, 64)
			if v.v == math.Trunc(v.v) {
				num = strconv.FormatFloat(v.v, 'f', 0, 64)
			}
			if v.hasSpread {
				fmt.Fprintf(w, "%s %s %s %s (segment IQR %.1f%%)\n", r.workload, d.Name, num, d.Unit, v.spread*100)
			} else {
				fmt.Fprintf(w, "%s %s %s %s\n", r.workload, d.Name, num, d.Unit)
			}
		}
	}
	line(endToEnd)
	if r.opt.trace {
		line(perLayer)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d\n", r.workload, r.attempted, r.failed)
	if s := r.series["lat_p99_us"]; s != nil {
		fmt.Fprintf(w, "%s segments %d on schedule of %d\n", r.workload, len(s.counted), len(s.all))
	}
	for _, g := range r.guards {
		fmt.Fprintf(w, "%s GUARD %s\n", r.workload, g)
	}
	for _, g := range r.warnings {
		fmt.Fprintf(w, "%s WARN %s\n", r.workload, g)
	}
}

// jsonLine is the run's last line of output: the driver's contract.
func (r *result) jsonLine() ([]byte, error) {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
	}
	metrics := map[string]m{}
	for _, d := range defs {
		metrics[d.Name] = m{Value: r.vals[d.Name].v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool         `json:"correct"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{len(r.guards) == 0, max(r.attempted, 1), r.failed, metrics})
}

func workloadNames() []string {
	var names []string
	for i := range liveSpecs {
		names = append(names, liveSpecs[i].name)
	}
	for i := range simSpecs {
		names = append(names, simSpecs[i].name)
	}
	return names
}

func knownWorkload(name string) bool { return slices.Contains(workloadNames(), name) }
