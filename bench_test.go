package triadtime

// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (Section IV) plus the Section V extension. Each benchmark
// regenerates its figure from the deterministic simulation at the
// paper's own scale (Figure 3 really simulates 8 hours) and reports the
// headline quantities as benchmark metrics; the first iteration prints
// the same rows the paper reports. Run:
//
//	go test -bench=. -benchmem
//
// Absolute wall-clock numbers are simulation throughput, not protocol
// performance; the protocol-level results are in the printed summaries
// and metrics (drift rates, availabilities, calibrated frequencies).

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"triadtime/internal/experiment"
	"triadtime/internal/simtime"
)

// printOnce emits a figure's rows on the benchmark's first iteration.
func printOnce(b *testing.B, i int, summary string) {
	b.Helper()
	if i == 0 {
		fmt.Printf("\n%s\n", summary)
	}
}

// BenchmarkFig1aTriadLikeAEXCDF regenerates Figure 1a: the CDF of
// inter-AEX delays under the Triad-like simulated distribution.
func BenchmarkFig1aTriadLikeAEXCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig1a(uint64(i)+1, 2*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.Quantile(0.5), "p50_gap_s")
		b.ReportMetric(float64(len(res.Gaps)), "gaps")
	}
}

// BenchmarkFig1bIsolatedCoreAEXCDF regenerates Figure 1b: inter-AEX
// delays on a monitoring core isolated from most OS interruptions
// (mode ≈ 5.4 minutes).
func BenchmarkFig1bIsolatedCoreAEXCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig1b(uint64(i)+1, 24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.Quantile(0.5), "p50_gap_s")
	}
}

// BenchmarkTableINCMonitoring regenerates §IV-A.1's table: 10k INC
// measurements per 15e6 TSC ticks (paper: mean 632181, σ 109.5 raw;
// mean 632182, σ 2.9 and range 10 after outlier removal).
func BenchmarkTableINCMonitoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunINCTable(uint64(i)+1, 10000)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.Clean.Mean, "clean_mean_INC")
		b.ReportMetric(res.Clean.Stddev, "clean_stddev_INC")
	}
}

// BenchmarkFig2aDriftNoAttack regenerates Figure 2a: 30 minutes of
// fault-free drift under Triad-like AEXs (sawtooth, ~110ppm).
func BenchmarkFig2aDriftNoAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig2(uint64(i)+1, 30*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		worst := 0.0
		for n := 0; n < 3; n++ {
			if rate, ok := res.DriftRate(n, 120, 1800); ok {
				worst = math.Max(worst, math.Abs(rate*1e6))
			}
		}
		if ppm, ok := res.SegmentDriftPPM(0); ok {
			b.ReportMetric(ppm, "node1_segment_drift_ppm")
		}
		b.ReportMetric(worst, "worst_drift_ppm")
	}
}

// BenchmarkFig2bTAReferences regenerates Figure 2b: cumulative Time
// Authority references per node over the Figure 2 run.
func BenchmarkFig2bTAReferences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig2(uint64(i)+1, 30*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nFig2b TA references after 30min:")
			for n := 0; n < 3; n++ {
				fmt.Printf(" node%d=%d", n+1, res.TACounts[n].Final())
			}
			fmt.Println()
		}
		b.ReportMetric(float64(res.TACounts[0].Final()), "ta_refs_node1")
	}
}

// BenchmarkFig3aDriftLowAEX regenerates Figure 3a: 8 hours in the
// low-AEX environment; the fastest calibrated clock leads peers via
// 50–70ms forward jumps.
func BenchmarkFig3aDriftLowAEX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig3(uint64(i)+1, 8*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.Availability[0]*100, "avail_node1_pct")
	}
}

// BenchmarkFig3bStateTimeline regenerates Figure 3b: the node-state
// timing diagram; a single FullCalib stay at the start of the run.
func BenchmarkFig3bStateTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig3(uint64(i)+1, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nFig3b state timeline (first hour, node 1):\n")
			segs := res.Timelines[0].Segments(simtime.Epoch, simtime.FromDuration(time.Hour))
			for _, s := range segs {
				fmt.Printf("  %10.3fs - %10.3fs  %s\n", s.From.Seconds(), s.To.Seconds(), s.State)
			}
		}
		full := 0
		for _, s := range res.Timelines[0].Segments(simtime.Epoch, simtime.FromDuration(time.Hour)) {
			if s.State == StateFullCalib {
				full++
			}
		}
		b.ReportMetric(float64(full), "fullcalib_stays")
	}
}

// BenchmarkFig4FPlusLowAEX regenerates Figure 4: F+ attack on Node 3 in
// the low-AEX environment (paper: F₃=3191.224MHz, drift -91ms/s).
func BenchmarkFig4FPlusLowAEX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig4(uint64(i)+1, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.FCalib[2]/1e6, "node3_fcalib_MHz")
		if rate, ok := res.DriftRate(2, 60, 300); ok {
			b.ReportMetric(rate*1e3, "node3_drift_ms_per_s")
		}
	}
}

// BenchmarkFig5FPlusTriadLike regenerates Figure 5: F+ with all nodes
// under Triad-like AEXs; Node 3 oscillates between peers' drift and
// ≈-150ms.
func BenchmarkFig5FPlusTriadLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig5(uint64(i)+1, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		minDrift := 0.0
		for _, p := range res.Drift[2].Available() {
			if p.RefSeconds > 60 {
				minDrift = math.Min(minDrift, p.DriftSeconds)
			}
		}
		b.ReportMetric(minDrift*1e3, "node3_min_drift_ms")
		b.ReportMetric(res.FCalib[2]/1e6, "node3_fcalib_MHz")
	}
}

// BenchmarkFig6aFMinusPropagation regenerates Figure 6a: the F- attack
// propagating from Node 3 to honest nodes once they experience AEXs
// (t >= 104s).
func BenchmarkFig6aFMinusPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(uint64(i)+1, 7*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		afterMax := 0.0
		for _, p := range res.Drift[0].Available() {
			if p.RefSeconds > 104 {
				afterMax = math.Max(afterMax, p.DriftSeconds)
			}
		}
		b.ReportMetric(afterMax, "node1_max_skip_s")
		b.ReportMetric(res.FCalib[2]/1e6, "node3_fcalib_MHz")
	}
}

// BenchmarkFig6bAEXCounts regenerates Figure 6b: cumulative AEX counts,
// flat for honest nodes until t=104s, then linear.
func BenchmarkFig6bAEXCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(uint64(i)+1, 7*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\nFig6b AEX counts: ")
			at104, end := 0, 0
			for _, p := range res.AEXCounts[0].Points {
				if p.RefSeconds <= 104 {
					at104 = p.Count
				}
				end = p.Count
			}
			fmt.Printf("node1 t<=104s: %d, t=end: %d; node3 end: %d\n",
				at104, end, res.AEXCounts[2].Final())
		}
		b.ReportMetric(float64(res.AEXCounts[0].Final()), "node1_aex_total")
	}
}

// BenchmarkTableAvailability regenerates §IV-A.2's availability
// numbers: ≥98% over 30 minutes of Triad-like AEXs (including initial
// calibration), up to 99.9% over 8 low-AEX hours.
func BenchmarkTableAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunAvailabilityTable(context.Background(), uint64(i)+1, 30*time.Minute, 8*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Availability (§IV-A.2):", rows))
		b.ReportMetric(rows[0].Availability[0]*100, "triadlike_pct")
		b.ReportMetric(rows[1].Availability[0]*100, "lowaex_pct")
	}
}

// BenchmarkExtResilientUnderAttack regenerates the Section V headline:
// the hardened protocol under the Figure 6 F- scenario keeps honest
// nodes safe.
func BenchmarkExtResilientUnderAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunExtensionVariant(uint64(i)+1, experiment.VariantHardened, FMinus, 7*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.HonestMaxDrift*1e3, "honest_max_drift_ms")
	}
}

// BenchmarkExtAblation regenerates the ablation table: every Section V
// mechanism toggled under the F- propagation scenario.
func BenchmarkExtAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiment.RunExtensionComparison(context.Background(), uint64(i)+1, 7*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Section V ablation (F- propagation scenario):", results))
		for _, r := range results {
			if r.Variant == experiment.VariantOriginal {
				b.ReportMetric(r.HonestMaxDrift, "original_honest_drift_s")
			}
			if r.Variant == experiment.VariantHardened {
				b.ReportMetric(r.HonestMaxDrift*1e3, "hardened_honest_drift_ms")
			}
		}
	}
}

// BenchmarkBaselineDriftQuality compares synchronization quality:
// Triad's ≤1s-window regression vs the hardened 8s window vs an
// NTP-style discipline, all with the same +100ppm crystal error (the
// paper's §IV-A.2 point: Triad's effective drift is an order of
// magnitude above NTP's 15ppm standard).
func BenchmarkBaselineDriftQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunDriftQuality(uint64(i)+1, 2*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Drift quality (same TA, same +100ppm crystal):", rows))
		b.ReportMetric(rows[0].ResidualPPM, "triad_ppm")
		b.ReportMetric(rows[2].ResidualPPM, "ntp_ppm")
	}
}

// BenchmarkBaselineT3E maps T3E's use-quota trade-off (§II-A): quota
// vs TPM-delay attack throughput/staleness, plus the TPM owner's
// ±32.5% rate-configuration attack that Triad's TA anchoring is immune
// to.
func BenchmarkBaselineT3E(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep, err := experiment.RunT3ETradeoff(uint64(i)+1, 2000, 10*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		drift, err := experiment.RunT3EOwnerDrift(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("T3E use-quota vs TPM-delay trade-off (§II-A):", sweep)+
			experiment.Table("T3E under TPM owner rate configuration (spec envelope ±32.5%):", drift))
		b.ReportMetric(sweep[len(sweep)-1].Throughput*100, "bigquota_tput_pct")
	}
}

// BenchmarkExtLossResilience sweeps packet loss over the fault-free
// scenario: loss costs retries and availability, never calibration
// accuracy.
func BenchmarkExtLossResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunLossResilience(context.Background(), uint64(i)+1, 10*time.Minute, nil)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Packet-loss resilience (Triad-like scenario):", rows))
		b.ReportMetric(rows[len(rows)-1].MinAvailability*100, "lossy_avail_pct")
	}
}

// BenchmarkExtTAOutage blacks out the Time Authority mid-run: peers
// keep some service alive, and the cluster recovers when the authority
// returns.
func BenchmarkExtTAOutage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTAOutage(uint64(i)+1, 15*time.Minute, 5*time.Minute, 8*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println("\n" + res.Summary())
		}
		b.ReportMetric(res.AvailabilityDuring*100, "outage_avail_pct")
	}
}

// BenchmarkExtQuorumFaults regenerates the multi-authority quorum
// fault suite: availability and correctness of Marzullo consensus over
// N Time Authorities versus the single-TA baseline under outages,
// lying/delaying authorities, split-brain, and staggered failures.
func BenchmarkExtQuorumFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunQuorumFaults(context.Background(), uint64(i)+10, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Multi-authority quorum fault suite:", rows))
		for _, r := range rows {
			switch r.Name {
			case "baseline-1ta-outage":
				b.ReportMetric(r.RawAvailability*100, "baseline_outage_avail_pct")
			case "quorum-3ta-1dark":
				b.ReportMetric(r.RawAvailability*100, "quorum_1dark_avail_pct")
			case "quorum-3ta-lying-fixed":
				b.ReportMetric(r.CorrectAvailability*100, "quorum_lying_correct_pct")
			}
		}
	}
}

// BenchmarkExtDualMonitor regenerates the §IV-A.1 RQ A.1 answer: an
// attacker masking a 0.8x TSC scaling with a matching discrete DVFS
// drop evades INC-only monitoring but not the coupled
// frequency-independent memory monitor.
func BenchmarkExtDualMonitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunDualMonitorAblation(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("DVFS-masked TSC scaling (0.8x TSC + 3500->2800MHz core):", rows))
		b.ReportMetric(rows[0].FinalClockRate, "inconly_rate")
		b.ReportMetric(rows[1].FinalClockRate, "dual_rate")
	}
}

// BenchmarkExtClusterScale sweeps cluster sizes through the F-
// propagation scenario: peer redundancy improves availability but the
// adopt-the-highest policy lets one fast clock infect honest nodes at
// every size.
func BenchmarkExtClusterScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunClusterScale(context.Background(), uint64(i)+1, nil, 0, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Cluster-size sweep under F- (one compromised node):", rows))
		b.ReportMetric(float64(rows[len(rows)-1].InfectedHonest), "n9_infected")
	}
}

// BenchmarkExtThousandNode runs the scale1k topology: 20 partitions of
// 5 regions x 10 nodes (1000 nodes total) with per-region TAs, an
// asymmetric WAN delay matrix, 10% churn, and a region-isolation
// window — the streaming-stats/pooled-probe memory model's headline
// workload. allocs/op here is the regression gate for the fixed-memory
// claim: per-tick accumulation must not allocate, so allocations stay
// proportional to node count, not to simulated duration.
func BenchmarkExtThousandNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTopology(context.Background(), experiment.DefaultScale1K(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Thousand-node partitioned topology:\n"+res.Summary())
		b.ReportMetric(res.MinAvailability*100, "min_avail_pct")
		b.ReportMetric(float64(res.Holdovers), "holdovers")
		b.ReportMetric(res.Rollup.Drift.Quantile(0.99)*1e3, "drift_p99_ms")
	}
}

// BenchmarkTableServingLatency reports the client-visible face of
// §IV-A.2's availability: retry-until-success latency of TrustedNow
// under the fault-free Triad-like scenario.
func BenchmarkTableServingLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunServingLatency(uint64(i)+1, 10*time.Minute, 50*time.Millisecond, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, "Client-visible serving latency:\n  "+res.Summary())
		b.ReportMetric(res.FirstTry*100, "first_try_pct")
		b.ReportMetric(float64(res.P99.Microseconds()), "p99_us")
	}
}

// BenchmarkTableSeedSweep reports the reproduction's error bars: the
// Figure 2 headline quantities across independent seeds.
func BenchmarkTableSeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSeedSweep(context.Background(), uint64(i)*100+1, 5, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, res.Summary())
		b.ReportMetric(res.Availability.Min*100, "min_avail_pct")
		b.ReportMetric(res.FCalibErrPPM.Max, "max_fcalib_err_ppm")
	}
}

// BenchmarkExtAttackLatency contrasts client-visible service under F-:
// the original protocol serves corrupted time at high availability;
// the hardened one converts the attack into visible unavailability on
// the compromised node only.
func BenchmarkExtAttackLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunAttackLatency(context.Background(), uint64(i)+1, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Client-visible service under F- attack:", rows))
		b.ReportMetric(rows[0].CompromisedFirstTry*100, "orig_compromised_pct")
		b.ReportMetric(rows[1].CompromisedFirstTry*100, "hard_compromised_pct")
	}
}

// BenchmarkExtChimerGossip quantifies §V's true-chimer gossip: under a
// lossy network, accredited peers substitute for same-moment
// majorities and the hardened cluster relies less often on the TA.
func BenchmarkExtChimerGossip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunGossipComparison(uint64(i)+1, 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("True-chimer gossip under 35% loss (5 hardened nodes):", rows))
		b.ReportMetric(rows[0].TARefsPerNode, "ta_refs_no_gossip")
		b.ReportMetric(rows[1].TARefsPerNode, "ta_refs_gossip")
	}
}

// BenchmarkTableCalibrationTime reports startup (time-to-first-service)
// distributions per protocol and interrupt environment.
func BenchmarkTableCalibrationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunCalibrationTime(context.Background(), uint64(i)*50+300, 10)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiment.Table("Time to first trusted timestamp:", rows))
		b.ReportMetric(rows[1].P50.Seconds(), "orig_storm_p50_s")
		b.ReportMetric(rows[3].P50.Seconds(), "hard_storm_p50_s")
	}
}

// BenchmarkParallelSeedSweep measures the experiment runner's realized
// speedup: the Figure 2a seed sweep executed serially vs. on a full
// worker pool. The sweep's aggregate statistics are identical either
// way; only the wall clock changes.
func BenchmarkParallelSeedSweep(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				avails, err := RunSeeds(context.Background(), workers, Seeds(uint64(i)*10+1, 6),
					func(_ context.Context, seed uint64) (float64, error) {
						res, err := experiment.RunFig2(seed, 5*time.Minute)
						if err != nil {
							return 0, err
						}
						worst := 1.0
						for _, a := range res.Availability {
							worst = math.Min(worst, a)
						}
						return worst, nil
					})
				if err != nil {
					b.Fatal(err)
				}
				worst := 1.0
				for _, a := range avails {
					worst = math.Min(worst, a)
				}
				b.ReportMetric(worst*100, "worst_avail_pct")
			}
		})
	}
}
