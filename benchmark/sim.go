package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"triadtime/internal/attack"
	"triadtime/internal/experiment"
	"triadtime/internal/experiment/runner"
)

// simPiece is one fixed, short piece of simulation work: a public
// experiment call at a fixed duration. Pieces are the segments of a
// simulation run. They are short — tens of milliseconds, not the
// seconds a whole figure set takes — because the host's interference
// comes and goes within a second: a short piece often runs undisturbed
// from end to end, a long one never does.
type simPiece struct {
	name string
	run  func(ctx context.Context, seed uint64, out io.Writer) error
}

// simSpec is one simulation workload: a cycle of pieces the subject
// repeats, and how many units one cycle counts as.
type simSpec struct {
	name    string
	units   int // units per cycle
	workers int // runner pool size (0 = every core)
	pieces  []simPiece
}

// figure adapts the experiments that return a *FigureResult.
func figure(run func(seed uint64, d time.Duration) (*experiment.FigureResult, error), d time.Duration) func(context.Context, uint64, io.Writer) error {
	return func(_ context.Context, seed uint64, out io.Writer) error {
		res, err := run(seed, d)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, res.Summary())
		return err
	}
}

var simSpecs = []simSpec{
	// The paper's own scenarios on three-node clusters, serial, each with
	// its retained drift and counter series: fault-free under Triad-like
	// AEXs, the low-AEX long run, the F+ and F- attacks at bench_test.go's
	// durations, and the hardened protocol under F- and fault-free.
	{name: "sim_paper", units: 1, workers: 1, pieces: []simPiece{
		{"fig2", figure(experiment.RunFig2, 10*time.Minute)},
		{"fig3", figure(experiment.RunFig3, 2*time.Hour)},
		{"fig5", figure(experiment.RunFig5, 10*time.Minute)},
		{"fig6", figure(experiment.RunFig6, 7*time.Minute)},
		{"ext_hardened", func(_ context.Context, seed uint64, out io.Writer) error {
			res, err := experiment.RunExtensionVariant(seed, experiment.VariantHardened, attack.ModeFMinus, 7*time.Minute)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, res.Summary())
			return err
		}},
		{"hardened_avail", figure(experiment.RunHardenedAvailability, 10*time.Minute)},
	}},
	// Two partitions of the thousand-node topology, side by side.
	{name: "sim_scale", units: scalePartitions, workers: 0, pieces: []simPiece{
		{"topology", func(ctx context.Context, seed uint64, out io.Writer) error {
			res, err := experiment.RunTopology(ctx, scaleConfig(seed))
			if err != nil {
				return err
			}
			if _, err := io.WriteString(out, res.Summary()); err != nil {
				return err
			}
			return res.WritePartitionsCSV(out)
		}},
	}},
}

func findSimSpec(name string) *simSpec {
	for i := range simSpecs {
		if simSpecs[i].name == name {
			return &simSpecs[i]
		}
	}
	return nil
}

// scalePartitions cuts the thousand-node topology to one partition per
// core, and scaleConfig its three simulated minutes to one — with the
// region-isolation window moved inside that minute — so that a
// partition run is a short piece too. (The churn schedule starts at
// one minute, so there is none.)
const scalePartitions = 2

func scaleConfig(seed uint64) experiment.TopologyConfig {
	cfg := experiment.DefaultScale1K(seed)
	cfg.Partitions = scalePartitions
	cfg.Duration = time.Minute
	cfg.Churn = 0
	cfg.IsolateFrom = 30 * time.Second
	cfg.IsolateTo = 50 * time.Second
	return cfg
}

// pieceStat is what one piece of one cycle cost the subject.
type pieceStat struct {
	WallNs int64 `json:"wall_ns"`
	CPUNs  int64 `json:"cpu_ns"`
}

// simSubject is the program under test of a simulation workload.
type simSubject struct {
	spec *simSpec
	seed uint64
}

func newSimSubject(cfg subjectConfig) (*simSubject, error) {
	spec := findSimSpec(cfg.Workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	runner.SetDefaultWorkers(spec.workers)
	return &simSubject{spec: spec, seed: cfg.Seed}, nil
}

// pass runs one cycle of the workload's pieces. It times each piece
// itself — there is no load generator to keep out of the subject, and
// a command round trip per 25 ms piece would be measurable — and
// digests everything the pieces print, so the driver can tell that
// every cycle computed the same thing.
func (s *simSubject) pass() (subjectReply, error) {
	h := sha256.New()
	stats := make([]pieceStat, len(s.spec.pieces))
	for i, p := range s.spec.pieces {
		cpu0, t0 := processCPUNs(), time.Now()
		if err := p.run(context.Background(), s.seed, h); err != nil {
			return subjectReply{}, fmt.Errorf("%s: %w", p.name, err)
		}
		stats[i] = pieceStat{WallNs: int64(time.Since(t0)), CPUNs: processCPUNs() - cpu0}
	}
	return subjectReply{Digest: hex.EncodeToString(h.Sum(nil)), Pieces: stats}, nil
}
