// Command triad-sim regenerates the paper's figures and tables from the
// deterministic simulation. Each experiment prints a paper-vs-measured
// summary and, with -out, writes the figure's data series as CSV.
//
// Figures are independent simulations, so -fig all fans them across a
// worker pool (-parallel N, default all CPUs). Output stays
// byte-identical to a serial run at any worker count: every figure
// renders into its own buffer and the buffers are flushed in figure
// order. With -cache DIR, results are memoized on disk keyed by
// (figure, seed, options), so re-running only recomputes what changed;
// the runner accounting line goes to stderr to keep stdout canonical.
//
// Usage:
//
//	triad-sim -fig all -seed 1 -out results/
//	triad-sim -fig all -parallel 8 -cache .simcache
//	triad-sim -fig 6 -dur 7m
//
// The figure ids, in -fig all's order, are the entries of the figures
// table; `triad-sim -h` lists them. -fig check is the reproduction
// audit, which -fig all does not run.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"triadtime/internal/experiment"
	"triadtime/internal/experiment/runner"
	"triadtime/internal/metrics"
	"triadtime/internal/trace"
)

// cacheVersion tags cache keys with the generation of the simulation
// code. Bump it whenever experiment output changes shape or content,
// or stale -cache entries would replay outdated results.
const cacheVersion = 5

// figure is one -fig id: its default simulated duration, which -dur
// overrides (zero where the experiment has no single duration and -dur
// does not apply), and the function that runs it at duration d and
// renders its text and files. The sweep-style experiments propagate
// ctx into their worker pools.
type figure struct {
	id  string
	dur time.Duration
	run func(ctx context.Context, r figRunner, d time.Duration) error
}

// figures is every figure in -fig all's execution (and flush) order.
var figures = []figure{
	{"1a", 2 * time.Hour, func(_ context.Context, r figRunner, d time.Duration) error {
		res, err := experiment.RunFig1a(r.seed, d)
		return r.cdf("fig1a_cdf.csv", res, err)
	}},
	{"1b", 24 * time.Hour, func(_ context.Context, r figRunner, d time.Duration) error {
		res, err := experiment.RunFig1b(r.seed, d)
		return r.cdf("fig1b_cdf.csv", res, err)
	}},
	{"inc", 0, func(_ context.Context, r figRunner, _ time.Duration) error {
		res, err := experiment.RunINCTable(r.seed, 10000)
		return r.text(res, err)
	}},
	{"2", 30 * time.Minute, drift("fig2", experiment.RunFig2)},
	{"3", 8 * time.Hour, drift("fig3", experiment.RunFig3)},
	{"4", 10 * time.Minute, drift("fig4", experiment.RunFig4)},
	{"5", 10 * time.Minute, drift("fig5", experiment.RunFig5)},
	{"6", 7 * time.Minute, func(_ context.Context, r figRunner, d time.Duration) error {
		sc := experiment.Fig6(r.seed, d)
		var traceBuf bytes.Buffer
		if r.traceFile != "" {
			sc.Trace = trace.NewRecorder(nil, &traceBuf)
		}
		res, err := experiment.RunFigure(sc)
		if err == nil && sc.Trace != nil {
			*r.files = append(*r.files, artifact{Path: r.traceFile, Data: traceBuf.Bytes()})
			fmt.Fprintf(r.out, "  wrote %d trace events to %s\n", sc.Trace.Count(""), r.traceFile)
		}
		return r.figure("fig6", res, err)
	}},
	{"avail", 30 * time.Minute, func(ctx context.Context, r figRunner, d time.Duration) error {
		rows, err := experiment.RunAvailabilityTable(ctx, r.seed, d, 8*time.Hour)
		return table(r, "Availability (§IV-A.2):", rows, err)
	}},
	{"ext", 7 * time.Minute, func(ctx context.Context, r figRunner, d time.Duration) error {
		rows, err := experiment.RunExtensionComparison(ctx, r.seed, d)
		return table(r, "Section V extension: protocol variants under the Figure 6 F- scenario", rows, err)
	}},
	{"ntp", 2 * time.Hour, func(_ context.Context, r figRunner, d time.Duration) error {
		rows, err := experiment.RunDriftQuality(r.seed, d)
		return table(r, "Drift quality vs NTP-style discipline (§IV-A.2 / §V):", rows, err)
	}},
	{"t3e", 0, func(_ context.Context, r figRunner, _ time.Duration) error {
		sweep, err := experiment.RunT3ETradeoff(r.seed, 2000, 10*time.Millisecond)
		if err != nil {
			return err
		}
		drift, err := experiment.RunT3EOwnerDrift(r.seed)
		if err != nil {
			return err
		}
		_, err = io.WriteString(r.out, experiment.Table("T3E use-quota vs TPM-delay trade-off (§II-A):", sweep)+
			experiment.Table("T3E under TPM owner rate configuration (spec envelope ±32.5%):", drift))
		return err
	}},
	{"loss", 10 * time.Minute, func(ctx context.Context, r figRunner, d time.Duration) error {
		rows, err := experiment.RunLossResilience(ctx, r.seed, d, nil)
		return table(r, "Packet-loss resilience:", rows, err)
	}},
	{"outage", 15 * time.Minute, func(_ context.Context, r figRunner, d time.Duration) error {
		res, err := experiment.RunTAOutage(r.seed, d, 5*time.Minute, 8*time.Minute)
		return r.text(res, err)
	}},
	{"quorum", 5 * time.Minute, quorum},
	{"dvfs", 0, func(_ context.Context, r figRunner, _ time.Duration) error {
		rows, err := experiment.RunDualMonitorAblation(r.seed)
		return table(r, "DVFS-masked TSC scaling vs monitoring configuration (§IV-A.1):", rows, err)
	}},
	{"scale", 5 * time.Minute, func(ctx context.Context, r figRunner, d time.Duration) error {
		rows, err := experiment.RunClusterScale(ctx, r.seed, r.nodes, r.churn, d)
		return table(r, "Cluster-size sweep under F- (one compromised node):", rows, err)
	}},
	{"gossip", 10 * time.Minute, func(_ context.Context, r figRunner, d time.Duration) error {
		rows, err := experiment.RunGossipComparison(r.seed, d)
		return table(r, "True-chimer gossip under 35% loss (5 hardened nodes, §V):", rows, err)
	}},
	{"calib", 0, func(ctx context.Context, r figRunner, _ time.Duration) error {
		rows, err := experiment.RunCalibrationTime(ctx, r.seed*50+300, 10)
		return table(r, "Time to first trusted timestamp:", rows, err)
	}},
	{"latency", 10 * time.Minute, func(_ context.Context, r figRunner, d time.Duration) error {
		res, err := experiment.RunServingLatency(r.seed, d, 50*time.Millisecond, time.Millisecond)
		return table(r, "Client-visible serving latency:", []*experiment.LatencyResult{res}, err)
	}},
	// The load sweep's 2s-per-point window is fixed (not -dur scaled):
	// load points cost one simulation event per request, so minutes-long
	// windows at 64k req/s would be prohibitive, and 2s of steady state
	// already resolves the throughput plateau and shed shares.
	{"load", 0, func(ctx context.Context, r figRunner, _ time.Duration) error {
		res, err := experiment.RunLoadSweep(ctx, r.seed, experiment.LoadConfig{})
		if err := r.text(res, err); err != nil {
			return err
		}
		return r.writeCSV("load_sweep.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "offered_rps,served_rps,shed_frac,p50_us,p99_us,batches,tokens"); err != nil {
				return err
			}
			for _, p := range res.Points {
				if _, err := fmt.Fprintf(w, "%d,%.0f,%.4f,%d,%d,%d,%d\n",
					p.OfferedRPS, p.ServedRPS, p.ShedFrac(),
					p.P50.Microseconds(), p.P99.Microseconds(), p.Batches, p.Tokens); err != nil {
					return err
				}
			}
			return nil
		})
	}},
	{"scale1k", 3 * time.Minute, func(ctx context.Context, r figRunner, d time.Duration) error {
		cfg := experiment.DefaultScale1K(r.seed)
		cfg.Duration = d
		res, err := experiment.RunTopology(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.out, "Thousand-node partitioned topology (per-region TAs, WAN matrix, churn, region isolation):")
		fmt.Fprint(r.out, res.Summary())
		return r.writeCSV("scale1k_partitions.csv", res.WritePartitionsCSV)
	}},
	{"commit", 0, func(ctx context.Context, r figRunner, _ time.Duration) error {
		rows, err := experiment.RunCommitAttacks(ctx, r.seed)
		if err := table(r, "Time-locked commitment attack suite (early unlocks, forgery, holdover, rollbacks):", rows, err); err != nil {
			return err
		}
		return r.writeCSV("commit_rows.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "scenario,ops,granted,early,fenced,forged,unavailable,anchor_rollbacks,clock_rollbacks,final_epoch"); err != nil {
				return err
			}
			for _, row := range rows {
				if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
					row.Name, row.Ops, row.Granted, row.Early, row.Fenced, row.Forged,
					row.Unavailable, row.AnchorRollbacks, row.ClockRollbacks, row.FinalEpoch); err != nil {
					return err
				}
			}
			return nil
		})
	}},
}

// audit is -fig check (check.go).
var audit = figure{"check", 0, check}

// lookup finds id's table entry.
func lookup(id string) (figure, bool) {
	for _, f := range append(figures, audit) {
		if f.id == id {
			return f, true
		}
	}
	return figure{}, false
}

// figureIDs lists the table's ids for -fig's usage text.
func figureIDs() string {
	ids := make([]string, 0, len(figures)+1)
	for _, f := range append(figures, audit) {
		ids = append(ids, f.id)
	}
	return strings.Join(ids, ", ")
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "triad-sim:", err)
		os.Exit(1)
	}
}

// artifact is one file a figure produces (CSV, gnuplot script, trace),
// captured in memory so figures can run concurrently and flush in
// deterministic order. The JSON form is what the -cache stores.
type artifact struct {
	Path string `json:"path"`
	Data []byte `json:"data"`
}

// figOutput is everything one figure run emits: its console text and
// its file artifacts, in production order.
type figOutput struct {
	Text  string     `json:"text"`
	Files []artifact `json:"files"`
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("triad-sim", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureIDs()+" (the audit), or all")
	seed := fs.Uint64("seed", 1, "simulation seed (same seed, same run)")
	outDir := fs.String("out", "", "directory for CSV data series (optional)")
	dur := fs.Duration("dur", 0, "override the experiment's simulated duration")
	traceFile := fs.String("trace", "", "write structured protocol events (JSONL) for traced figures (currently: 6)")
	parallel := fs.Int("parallel", 0, "experiment worker pool size (0 = all CPUs, 1 = serial)")
	cacheDir := fs.String("cache", "", "result cache directory; re-runs replay unchanged figures from disk")
	nodesFlag := fs.String("nodes", "", "comma-separated cluster sizes for -fig scale (default 3,5,7,9)")
	churn := fs.Float64("churn", 0, "fraction of honest nodes cycling offline in -fig scale (0..1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes, err := parseSizes(*nodesFlag)
	if err != nil {
		return err
	}
	if *churn < 0 || *churn > 1 {
		return fmt.Errorf("-churn must be in [0,1], got %g", *churn)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	runner.SetDefaultWorkers(*parallel)
	defer runner.SetDefaultWorkers(0)

	figs := figures
	if *fig != "all" {
		f, ok := lookup(*fig)
		if !ok {
			return fmt.Errorf("unknown figure %q", *fig)
		}
		figs = []figure{f}
	}

	var cache *runner.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = runner.OpenCache(*cacheDir); err != nil {
			return err
		}
	}

	tasks := make([]runner.Task[figOutput], len(figs))
	for i, f := range figs {
		tasks[i] = runner.Task[figOutput]{
			Name: "fig " + f.id,
			Key: runner.Key{
				// Everything besides the seed that shapes the output,
				// including the output paths embedded in the text.
				Scenario: fmt.Sprintf("triad-sim|v%d|fig=%s|dur=%s|outdir=%s|trace=%s|nodes=%s|churn=%g",
					cacheVersion, f.id, *dur, *outDir, *traceFile, *nodesFlag, *churn),
				Seed: *seed,
			},
			Run: func(ctx context.Context) (figOutput, error) {
				var buf bytes.Buffer
				var files []artifact
				r := figRunner{
					seed:      *seed,
					outDir:    *outDir,
					out:       &buf,
					traceFile: *traceFile,
					files:     &files,
					nodes:     nodes,
					churn:     *churn,
				}
				d := f.dur
				if *dur != 0 {
					d = *dur
				}
				err := f.run(ctx, r, d)
				return figOutput{Text: buf.String(), Files: files}, err
			},
		}
	}

	rep := runner.Run(context.Background(), runner.Config{Workers: *parallel, Cache: cache}, tasks)
	var firstErr error
	for i, res := range rep.Results {
		// Flush in figure order, including whatever a failed figure
		// produced before failing (the audit prints its verdict rows).
		if _, err := io.WriteString(out, res.Value.Text); err != nil {
			return err
		}
		for _, f := range res.Value.Files {
			if err := os.WriteFile(f.Path, f.Data, 0o644); err != nil {
				return err
			}
		}
		if res.Err != nil {
			if *fig == "all" {
				firstErr = fmt.Errorf("fig %s: %w", figs[i].id, res.Err)
			} else {
				firstErr = res.Err
			}
			break
		}
	}
	if len(tasks) > 1 || cache != nil {
		// Accounting goes to stderr: stdout stays byte-identical across
		// worker counts and cache states.
		fmt.Fprintln(errOut, rep.Summary())
	}
	return firstErr
}

// figRunner renders one figure into an in-memory buffer and artifact
// list; the driver flushes both in deterministic figure order.
type figRunner struct {
	seed      uint64
	outDir    string
	out       io.Writer
	traceFile string
	files     *[]artifact
	// nodes/churn parameterize the scale sweep (-nodes, -churn).
	nodes []int
	churn float64
}

// parseSizes parses the -nodes flag: comma-separated positive cluster
// sizes ("" keeps the experiment's default sweep).
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("-nodes: %q is not a cluster size >= 2", p)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// table prints a tabular figure (header, then one line per row) unless
// the run failed.
func table[T interface{ Summary() string }](r figRunner, header string, rows []T, err error) error {
	if err != nil {
		return err
	}
	_, err = io.WriteString(r.out, experiment.Table(header, rows))
	return err
}

// text prints a result's summary unless the run failed: a one-line
// summary gets its newline, a multi-line one already ends in it.
func (r figRunner) text(res interface{ Summary() string }, err error) error {
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.out, strings.TrimSuffix(res.Summary(), "\n"))
	return err
}

func (r figRunner) writeCSV(name string, write func(io.Writer) error) error {
	if r.outDir == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, name)
	*r.files = append(*r.files, artifact{Path: path, Data: buf.Bytes()})
	fmt.Fprintf(r.out, "  wrote %s\n", path)
	return nil
}

func (r figRunner) cdf(name string, res *experiment.CDFResult, err error) error {
	if err := r.text(res, err); err != nil {
		return err
	}
	if err := r.writeCSV(name, func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "gap_seconds,cdf"); err != nil {
			return err
		}
		for _, p := range res.Points {
			if _, err := fmt.Fprintf(w, "%.6f,%.6f\n", p.X, p.P); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	base := strings.TrimSuffix(name, ".csv")
	return r.writeCSV(base+"_plot.gp", func(w io.Writer) error {
		return writeCDFPlot(w, base)
	})
}

// drift is the table entry of a drift/state figure whose files are
// named after base.
func drift(base string, run func(uint64, time.Duration) (*experiment.FigureResult, error)) func(context.Context, figRunner, time.Duration) error {
	return func(_ context.Context, r figRunner, d time.Duration) error {
		res, err := run(r.seed, d)
		return r.figure(base, res, err)
	}
}

// figure renders a drift/state figure: its summary, the drift, count,
// counter and state CSVs, and their gnuplot scripts.
func (r figRunner) figure(base string, res *experiment.FigureResult, err error) error {
	if err := r.text(res, err); err != nil {
		return err
	}
	nodes := len(res.Drift)
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"_drift.csv", func(w io.Writer) error { return metrics.WriteDriftCSV(w, res.Drift) }},
		{"_ta_refs.csv", func(w io.Writer) error { return metrics.WriteCountCSV(w, res.TACounts) }},
		{"_aex.csv", func(w io.Writer) error { return metrics.WriteCountCSV(w, res.AEXCounts) }},
		{"_counters.csv", func(w io.Writer) error { return metrics.WriteCountersCSV(w, res.Counters) }},
		{"_states.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "node,ref_seconds,state"); err != nil {
				return err
			}
			for i, tl := range res.Timelines {
				for _, ch := range tl.Changes() {
					if _, err := fmt.Fprintf(w, "node%d,%.3f,%s\n", i+1, ch.At.Seconds(), ch.State); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"_plot.gp", func(w io.Writer) error { return writeDriftPlot(w, base, nodes) }},
		{"_ta_refs_plot.gp", func(w io.Writer) error { return writeCountPlot(w, base, "ta_refs", "TA references received", nodes) }},
		{"_aex_plot.gp", func(w io.Writer) error { return writeCountPlot(w, base, "aex", "AEX count", nodes) }},
	} {
		if err := r.writeCSV(base+f.name, f.write); err != nil {
			return err
		}
	}
	return nil
}

// quorum renders the multi-authority fault suite and its lying-authority
// attack figure.
func quorum(ctx context.Context, r figRunner, d time.Duration) error {
	rows, err := experiment.RunQuorumFaults(ctx, r.seed, d)
	if err := table(r, "Multi-authority quorum fault suite (Marzullo consensus over N TAs):", rows, err); err != nil {
		return err
	}
	if err := r.writeCSV("quorum_rows.csv", func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "scenario,authorities,availability,correct_availability,quorum_accepts,quorum_no_majority,false_tickers,holdovers"); err != nil {
			return err
		}
		for _, row := range rows {
			if _, err := fmt.Fprintf(w, "%s,%d,%.6f,%.6f,%d,%d,%d,%d\n",
				row.Name, row.Authorities, row.RawAvailability, row.CorrectAvailability,
				row.QuorumAccepts, row.QuorumNoMajority, row.FalseTickers, row.Holdovers); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fig, err := experiment.RunQuorumAttackFigure(r.seed, d)
	if err != nil {
		return err
	}
	if err := r.writeCSV("quorum_attack_baseline_drift.csv", func(w io.Writer) error {
		return metrics.WriteDriftCSV(w, fig.Baseline)
	}); err != nil {
		return err
	}
	return r.writeCSV("quorum_attack_quorum_drift.csv", func(w io.Writer) error {
		return metrics.WriteDriftCSV(w, fig.Quorum)
	})
}
