package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the A/A comparison reads.
type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found here or one directory up")
}

// runTimeout is how long the driver's contract gives one run.
const runTimeout = 180 * time.Second

// runOnce runs one workload in a fresh process, as the driver does, and
// returns the metrics of its last output line. Whether the run counts
// is the run's own verdict: a few requests lost to a stalled host leave
// it correct, with a warning (see maxLostRatio).
func runOnce(workload string, seed uint64, seconds int) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var last struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !last.Correct {
		return nil, fmt.Errorf("%s seed %d: run was not correct\n%s", workload, seed, out)
	}
	m := map[string]float64{}
	for name, v := range last.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// aaRuns is how many runs make a set, each with a seed of its own: as
// many as the driver takes a median and a spread over.
const aaRuns = 10

// runAA measures the same code twice — two sets of runs per workload —
// and holds the sets against each other by the rule the driver accepts
// a benchmark by, which is also how a later change will be held against
// this one. Per workload and metric: the second median may not be worse
// than the first by more than the metric's bound, and each set's
// inter-quartile spread must stay within the bound too. The driver
// exempts the spread of setup_s (and of nothing else) from the second
// half; so does this, and says so on the line when it mattered. A
// metric whose runs read exactly what an earlier metric's did — a
// simulation pass has one wall time, reported as both latencies — is
// one measurement and is judged once. It returns the process exit code.
func runAA(seconds int) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	breaches := 0
	fmt.Printf("%-13s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "IQR A", "IQR B", "bound")
	for _, w := range workloadNames() {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for r := 0; r < aaRuns; r++ {
				m, err := runOnce(w, uint64(1+s*aaRuns+r), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for name, v := range m {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		for i, d := range bf.EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			same := slices.IndexFunc(bf.EndToEnd[:i], func(e benchmarkMetric) bool {
				return slices.Equal(sets[0][e.Name], a) && slices.Equal(sets[1][e.Name], b)
			})
			if same >= 0 {
				fmt.Printf("%-13s %-16s the same measurement as %s\n", w, d.Name, bf.EndToEnd[same].Name)
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			iqrA, iqrB := runSpread(a), runSpread(b)
			verdict := ""
			switch wide := max(iqrA, iqrB) > d.Bound; {
			case worse > d.Bound, wide && d.Name != "setup_s":
				verdict = "  BREACH"
				breaches++
			case wide:
				verdict = "  (spread over the bound; set-up spread is exempt)"
			}
			fmt.Printf("%-13s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n", w, d.Name, ma, mb, (mb-ma)/ma*100, iqrA*100, iqrB*100, d.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("every workload x metric agrees within its bound")
	return 0
}

// runSpread is the spread of one set of runs: the distance between the
// first and third quartile as a share of the median, with the quartiles
// Python's statistics.quantiles(values, n=4) gives — its default
// "exclusive" method — because that is what BENCHMARK.json's bounds are
// checked with.
func runSpread(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	quartile := func(k int) float64 {
		pos := min(max(float64(k*(len(s)+1))/4-1, 0), float64(len(s)-1)) // 0-based
		lo := min(int(math.Floor(pos)), len(s)-2)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	if len(s) < 2 || median(s) == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / median(s)
}
