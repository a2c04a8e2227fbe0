package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// golden.json records, for seed 1, the digest of everything each
// simulation workload prints. BENCHMARK.json may carry only the keys
// the driver defines, so the digests live beside the code.
//
//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 1

func goldenDigest(workload string) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return g[workload], nil
}

// minSimPasses is the fewest measured passes a boot accepts, however
// slow the host is being.
const minSimPasses = 4

// pieceTimes holds, per piece of a workload, what every repetition of
// it in the run cost, in microseconds per unit.
type pieceTimes struct{ wall, cpu [][]float64 }

// runSim runs one simulation workload and fills res: boots fresh
// subjects, one warm-up pass each, then passes for the boot's share of
// the run. A pass is one "pass" command — every piece of the workload
// once, with the run's seed. A segment is one piece of one pass. Every
// repetition of a piece is the same deterministic computation, timed
// inside the subject, so each piece is read as the fastest of all its
// repetitions in the run and a unit costs the sum over pieces.
func runSim(spec *simSpec, opt options, res *result) error {
	budget := opt.measured() / boots
	digest := ""
	times := pieceTimes{wall: make([][]float64, len(spec.pieces)), cpu: make([][]float64, len(spec.pieces))}
	for i := 0; i < boots; i++ {
		started := time.Now()
		p, _, err := spawnSubject(subjectConfig{Workload: spec.name, Seed: opt.seed})
		if err != nil {
			return err
		}
		res.boot("facade.boot_s", time.Since(started).Seconds())
		if err = simBoot(spec, p, started, budget, &digest, &times, res); err == nil && opt.trace && i == boots-1 {
			err = res.traceFrom(p)
		}
		p.stop()
		if err != nil {
			return err
		}
	}
	res.foldBoots()
	// A caller of a pass waits for all of it, so what it waits is the
	// units' wall time times the units a pass holds; median and tail are
	// the same number.
	res.putPieces("cpu_us_per_unit", times.cpu, 1)
	res.putPieces("lat_p50_us", times.wall, float64(spec.units))
	res.putPieces("lat_p99_us", times.wall, float64(spec.units))
	if res.failed > 0 {
		res.guard("%d of %d units printed something other than the first pass", res.failed, res.attempted)
	}
	if opt.seed == goldenSeed {
		want, err := goldenDigest(spec.name)
		if err != nil {
			return err
		}
		if digest != want {
			res.guard("seed %d digest %s differs from the recorded %s", goldenSeed, digest, want)
		}
	}
	return nil
}

// simBoot warms one subject up, measures it for budget, and records
// what the boot read. digest is the run's: the first pass of the first
// boot sets it and every later pass must match it. times collects the
// run's repetitions of every piece.
func simBoot(spec *simSpec, p *subjectProc, started time.Time, budget time.Duration, digest *string, times *pieceTimes, res *result) error {
	// Warm-up: one pass, which grows the heap to its working size.
	warmFrom := time.Now()
	last, err := p.call("pass")
	if err != nil {
		return err
	}
	res.boot("facade.warmup_s", time.Since(warmFrom).Seconds())
	res.boot("setup_s", time.Since(started).Seconds())
	if *digest == "" {
		*digest = last.Digest
	} else if last.Digest != *digest {
		res.guard("a warm-up pass printed something else (digest %.12s, was %.12s)", last.Digest, *digest)
	}

	var allocs, allocBytes, ctx, eff []float64
	warm := last
	begun := time.Now()
	for n := 0; n < minSimPasses || time.Since(begun) < budget; n++ {
		t := time.Now()
		rep, err := p.call("pass")
		if err != nil {
			return err
		}
		passWall := time.Since(t)
		if len(rep.Pieces) != len(spec.pieces) {
			return fmt.Errorf("subject timed %d pieces, workload has %d", len(rep.Pieces), len(spec.pieces))
		}
		units := float64(spec.units)
		res.attempted += spec.units
		if rep.Digest != *digest {
			res.failed += spec.units
		}
		for i, ps := range rep.Pieces {
			times.wall[i] = append(times.wall[i], float64(ps.WallNs)/1e3/units)
			times.cpu[i] = append(times.cpu[i], float64(ps.CPUNs)/1e3/units)
		}
		allocs = append(allocs, float64(rep.Proc.Mallocs-last.Proc.Mallocs)/units)
		allocBytes = append(allocBytes, float64(rep.Proc.AllocBytes-last.Proc.AllocBytes)/units)
		ctx = append(ctx, float64(rep.Proc.VolCtx-last.Proc.VolCtx)/units)
		eff = append(eff, float64(rep.Proc.CPUNs-last.Proc.CPUNs)/float64(passWall))
		last = rep
	}
	res.bootPeak(last.Proc.HWMKB)
	if !res.opt.trace {
		return nil
	}
	workers := spec.workers
	if workers == 0 {
		workers = runtime.NumCPU() // the subject's default pool, not the driver's raised GOMAXPROCS
	}
	res.segments("process.allocs_per_unit", allocs, nil)
	res.segments("process.alloc_bytes_per_unit", allocBytes, nil)
	res.segments("process.vol_ctx_switches_per_unit", ctx, nil)
	res.boot("process.sys_cpu_share", float64(last.Proc.CPUSysNs-warm.Proc.CPUSysNs)/float64(last.Proc.CPUNs-warm.Proc.CPUNs))
	res.boot("runner.parallel_efficiency", median(eff)/float64(workers))
	res.put("process.gc_cycles", res.vals["process.gc_cycles"].v+float64(last.Proc.NumGC-warm.Proc.NumGC))
	return nil
}

// putPieces records a simulation timing of the run: each piece at the
// fastest of its repetitions, summed — what one unit costs when nothing
// interferes — times scale, with the widest of the pieces' spreads.
// The minimum, where a live run is read from a lower quartile, because
// nothing but the piece is inside the interval timed (no mark round
// trip, no timer, no other process's clock), so the fastest repetition
// is not luck but the computation itself; and over three sets of ten
// runs it moved less from run to run than a low quantile did (README.md).
func (r *result) putPieces(name string, perPiece [][]float64, scale float64) {
	var sum, widest float64
	for _, xs := range perPiece {
		_, spread := quiet(xs)
		sum += slices.Min(xs)
		widest = max(widest, spread)
	}
	r.vals[name] = value{v: sum * scale, spread: widest, hasSpread: true}
}
