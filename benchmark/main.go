// Command benchmark is the repository's benchmark: five workloads
// (three against a live façade node over loopback UDP, two on the
// deterministic simulator), each run as a driver that generates load
// and reads clocks plus a subject — this same binary re-executed — that
// is the program under test and reports its own CPU, memory and
// counters. See README.md for the design and BENCHMARK.json at the
// root of the repository for the contract.
//
//	bash benchmark/run.sh --workload stamp_steady --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --trace 1
//	bash benchmark/run.sh --aa
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options is one run's command line.
type options struct {
	seed    uint64
	seconds int
	trace   bool
}

// measured is how long a run measures, over all its boots. The traced
// run measures for half as long: its numbers are never the end-to-end
// ones, and the trace needs the rest of the time.
func (o options) measured() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	return d
}

func main() {
	role := flag.String("role", "driver", "driver, or subject (set by the driver when it re-executes itself)")
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
	aa := flag.Bool("aa", false, "run every workload in two sets back to back and compare the sets against the bounds")
	flag.Parse()

	if *role == "subject" {
		subjectMain()
		return
	}
	// The generator's few goroutines must never queue for a P behind each
	// other: a sender that wakes on time and then waits for the receiver
	// to yield would be measuring the Go scheduler of the wrong process.
	// The subject keeps the default.
	runtime.GOMAXPROCS(max(8, runtime.NumCPU()))
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*seconds))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	code := 0
	for _, name := range names {
		res, err := runWorkload(name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.printLines(os.Stdout)
		if len(res.guards) > 0 {
			code = 1
		}
		if len(names) == 1 {
			line, err := res.jsonLine()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", line)
		}
	}
	os.Exit(code)
}

// outDir is where a run keeps its files: the wrapper script's build
// directory, or the system's temporary directory without the script.
func outDir() string {
	if dir := os.Getenv("BENCH_OUT_DIR"); dir != "" {
		return dir
	}
	return os.TempDir()
}

// runWorkload runs one workload once. A traced run also writes its
// spans, as JSONL, to spans_<workload>.jsonl in outDir.
func runWorkload(name string, opt options) (*result, error) {
	res := newResult(name, opt)
	var calibBefore float64
	if opt.trace {
		calibBefore = hostCalib()
	}
	var err error
	if spec := findLiveSpec(name); spec != nil {
		err = runLive(spec, opt, res)
	} else {
		err = runSim(findSimSpec(name), opt, res)
	}
	if err != nil {
		return nil, err
	}
	if !opt.trace {
		return res, nil
	}
	res.put("host.calib_ns", (calibBefore+hostCalib())/2)
	f, err := os.Create(filepath.Join(outDir(), "spans_"+name+".jsonl"))
	if err != nil {
		return nil, err
	}
	if err := writeSpans(f, res.spans); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return res, nil
}
