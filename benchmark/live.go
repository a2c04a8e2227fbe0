package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"
)

// warmTicks is the fixed warm-up of a boot: half a second of the
// workload's own traffic before the first measured segment.
const warmTicks = int(500 * time.Millisecond / tickPeriod)

// boots is how many times a run boots a fresh subject. Each boot is set
// up, warmed up and measured for its share of the run, and every metric
// is the median over the boots of what each read. A single boot is not
// a sample of the program but of one of its regimes: which threads the
// guest kernel has put on which CPU, how the drain timers sit against
// the arrivals, where the heap's high-water mark happened to land.
// Those persist for as long as a process lives and differ between
// processes, and the only way to average over them is to start again.
const boots = 4

// bootRetries is how many more times a boot is tried when the host
// disturbs its calibration.
const bootRetries = 2

// maxLostRatio is the share of honest requests that may go unanswered
// before the run is incorrect. The node's socket buffer holds 30 ms of
// stamp_steady's traffic and this host stalls for longer than that now
// and then; a wrong answer, unlike a lost one, is never tolerated.
const maxLostRatio = 0.01

// maxLateP99us is how late 99 in 100 of a segment's ticks may leave for
// the segment to count: two tick periods. A segment in which the
// generator did not hold its schedule measured the host, not the node —
// every latency in it is the generator's lateness plus a millisecond,
// and the node's CPU per request reads a third to a half low, because a
// stalled sender's ticks arrive bunched and the node wakes once for
// three of them. How late the generator ran says so without looking at
// anything the node did, so choosing segments by it cannot flatter the
// node. Over ten runs each of stamp_steady and ops_mixed in a noisy
// hour (README.md) the run-to-run spread of lat_p99_us was 7123 % and
// 63 % read from every segment, 11 % and 9 % read from these.
const maxLateP99us = 2 * float64(tickPeriod/time.Microsecond)

// bootKey derives the client-traffic key of one boot. Every boot of a
// run gets its own, so the generator's constant sender identities never
// meet the same key twice.
func bootKey(seed uint64, boot int) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:], seed)
	binary.BigEndian.PutUint64(b[8:], uint64(boot))
	k := sha256.Sum256(b[:])
	return k[:]
}

// liveBoot is one set-up of a live workload, ready to measure.
type liveBoot struct {
	proc    *subjectProc
	boot    subjectReply
	lg      *loadgen
	ab      *abuser
	dir     string
	started time.Time
}

func (b *liveBoot) discard() {
	if b.lg != nil {
		b.lg.finish(0)
	}
	if b.ab != nil {
		b.ab.finish(0)
	}
	if b.proc != nil {
		b.proc.stop()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// setUpLive spawns a subject, waits for it to serve, and connects the
// generator: everything up to (not including) the warm-up traffic.
func setUpLive(spec *liveSpec, seed uint64, boot, segments int) (*liveBoot, error) {
	b := &liveBoot{started: time.Now()}
	var err error
	if b.dir, err = os.MkdirTemp(outDir(), "subject-"); err != nil {
		return nil, err
	}
	key := bootKey(seed, boot)
	b.proc, b.boot, err = spawnSubject(subjectConfig{Workload: spec.name, Seed: seed, KeyHex: hex.EncodeToString(key), Dir: b.dir})
	if err != nil {
		b.discard()
		return nil, err
	}
	if err = b.connect(spec, b.boot.Addr, key, seed, segments); err != nil {
		b.discard()
		return nil, err
	}
	return b, nil
}

// connect opens the generator's sockets to the node at addr and does
// the workload's set-up traffic. On an error the caller discards b,
// whichever of its parts exist by then.
func (b *liveBoot) connect(spec *liveSpec, addr string, key []byte, seed uint64, segments int) error {
	var err error
	if b.lg, err = newLoadgen(spec, addr, key, seed, warmTicks, segments); err != nil {
		return err
	}
	if err = b.lg.prepare(); err != nil {
		return fmt.Errorf("set-up traffic: %w", err)
	}
	if spec.abuseRate > 0 {
		if b.ab, err = newAbuser(spec, addr, key, seed); err == nil {
			err = b.ab.prepare()
		}
		if err != nil {
			return fmt.Errorf("abuse set-up: %w", err)
		}
	}
	return nil
}

// liveMark is both processes' counters at one segment edge.
type liveMark struct {
	subject subjectReply
	driver  procStats
}

func takeMark(p *subjectProc) (liveMark, error) {
	rep, err := p.call("mark")
	return liveMark{subject: rep, driver: readProcStats(false)}, err
}

// runLive runs one live workload and fills res.
func runLive(spec *liveSpec, opt options, res *result) error {
	segments := max(int(opt.measured()/segLen)/boots, 1)
	for i := 0; i < boots; i++ {
		b, err := setUpLive(spec, opt.seed, i, segments)
		for retry := 1; errors.Is(err, errDisturbed) && retry <= bootRetries; retry++ {
			res.warn("boot %d: %v; booting again", i, err)
			// A retried boot needs a key of its own like any other.
			b, err = setUpLive(spec, opt.seed, i+retry*boots, segments)
		}
		if err != nil {
			return err
		}
		if err = b.measure(res); err == nil && opt.trace && i == boots-1 {
			// The last boot stays up for the staged replay.
			err = res.traceFrom(b.proc)
		}
		b.discard()
		if err != nil {
			return err
		}
	}
	res.foldBoots()
	if opt.trace {
		// The replay's stages summed per honest unit, over what the subject
		// process really spent per honest unit.
		res.put("budget.coverage", res.vals["budget.stage_sum_ns_per_unit"].v/(res.vals["cpu_us_per_unit"].v*1e3))
	}
	if float64(res.failed) > maxLostRatio*float64(res.attempted) {
		res.guard("%d of %d honest requests were not answered as expected", res.failed, res.attempted)
	} else if res.failed > 0 {
		res.warn("%d of %d honest requests were not answered as expected", res.failed, res.attempted)
	}
	return nil
}

// measure runs the boot's schedule — warm-up, then the measured
// segments, marking both processes at every segment edge — and records
// what the boot read.
func (b *liveBoot) measure(res *result) error {
	lg := b.lg
	lg.start(time.Now().Add(2 * time.Millisecond))
	if b.ab != nil {
		b.ab.start()
	}
	var setupS, warmS float64
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		runSchedule(lg, b.ab, lg.totalTicks(), func() {
			setupS = time.Since(b.started).Seconds()
			warmS = time.Since(lg.t0).Seconds()
		})
	}()
	var marks []liveMark
	var markErr error
	for s := 0; s <= len(lg.segs) && markErr == nil; s++ {
		time.Sleep(time.Until(lg.measureStart().Add(time.Duration(s) * segLen)))
		var m liveMark
		m, markErr = takeMark(b.proc)
		marks = append(marks, m)
	}
	<-sent
	if markErr != nil {
		return markErr
	}
	lg.finish(200 * time.Millisecond)
	if b.ab != nil {
		b.ab.finish(50 * time.Millisecond)
	}
	final, err := takeMark(b.proc)
	if err != nil {
		return err
	}
	res.boot("setup_s", setupS)
	res.boot("facade.boot_s", b.boot.BootS)
	res.boot("facade.calibrate_s", b.boot.CalibrateS)
	res.boot("facade.warmup_s", warmS)
	b.summarize(marks, final, res)
	return nil
}

// summarize turns one boot's marks and generator records into readings,
// guards and warnings.
func (b *liveBoot) summarize(marks []liveMark, final liveMark, res *result) {
	spec, lg := b.lg.spec, b.lg
	n := len(lg.segs)
	p50s, p99s, lates, onSchedule := make([]float64, n), make([]float64, n), make([]float64, n), make([]bool, n)
	attempted, failed, answered, held := 0, 0, 0, 0
	for i := range lg.segs {
		st := &lg.segs[i]
		attempted += st.sent
		failed += st.sent - st.ok
		answered += st.answered
		slices.Sort(st.late)
		lates[i] = float64(percentileU32(st.late, 0.99)) / 1e3
		slices.Sort(st.lat)
		p50s[i] = float64(percentileU32(st.lat, 0.50)) / 1e3
		p99s[i] = float64(percentileU32(st.lat, 0.99)) / 1e3
		if onSchedule[i] = st.ok > 0 && lates[i] <= maxLateP99us; onSchedule[i] {
			held++
		}
	}
	res.attempted += attempted
	res.failed += failed
	// Cost is read between marks, on the subject's own clock: the load
	// is a fixed rate, so an interval of dt seconds held rate x dt units
	// whatever the command round trip did to the instant of the mark.
	var cpuPerUnit, genCPUPerUnit, allocs, allocBytes, ctx []float64
	for i := 1; i < len(marks); i++ {
		from, to := marks[i-1], marks[i]
		units := float64(spec.honestRate) * float64(to.subject.Proc.AtNs-from.subject.Proc.AtNs) / 1e9
		genUnits := float64(spec.honestRate) * float64(to.driver.AtNs-from.driver.AtNs) / 1e9
		cpuPerUnit = append(cpuPerUnit, float64(to.subject.Proc.CPUNs-from.subject.Proc.CPUNs)/1e3/units)
		genCPUPerUnit = append(genCPUPerUnit, float64(to.driver.CPUNs-from.driver.CPUNs)/1e3/genUnits)
		allocs = append(allocs, float64(to.subject.Proc.Mallocs-from.subject.Proc.Mallocs)/units)
		allocBytes = append(allocBytes, float64(to.subject.Proc.AllocBytes-from.subject.Proc.AllocBytes)/units)
		ctx = append(ctx, float64(to.subject.Proc.VolCtx-from.subject.Proc.VolCtx)/units)
	}
	res.segments("cpu_us_per_unit", cpuPerUnit, onSchedule)
	res.segments("lat_p50_us", p50s, onSchedule)
	res.segments("lat_p99_us", p99s, onSchedule)
	res.bootPeak(final.subject.Proc.HWMKB)

	first, last := marks[0], marks[len(marks)-1]
	subjectCPU := float64(last.subject.Proc.CPUNs - first.subject.Proc.CPUNs)
	driverCPU := float64(last.driver.CPUNs - first.driver.CPUNs)

	// Guards: the program answered wrongly, and the run is not correct.
	for _, m := range append(marks, final) {
		if m.subject.State != "OK" {
			res.guard("node left StateOK (state %s)", m.subject.State)
			break
		}
	}
	if lg.bad > 0 {
		res.guard("%d answers failed a check; first: %s", lg.bad, lg.firstBad)
	}
	sc, cc := final.subject.Serve, final.subject.Commit
	if ab := b.ab; ab != nil {
		if ab.forbidden > 0 {
			res.guard("%d forbidden replies to abuse; first: %s", ab.forbidden, ab.firstBad)
		}
		// The hot client may be served its bucket's burst plus its rate
		// for as long as the abuser ran, and not one request more.
		elapsed := time.Since(lg.t0).Seconds()
		if budget := spec.ratePerClient * (1 + elapsed); float64(ab.hotOK) > budget {
			res.guard("hot client was served %d requests, over its budget of %.0f", ab.hotOK, budget)
		}
		// Oversize datagrams must die before authentication, where the
		// node counts them; some may be lost on the way there.
		if sent := ab.sent[abOversize]; sc.OversizeDrops > uint64(sent) {
			res.guard("node counted %d oversize drops, %d were sent", sc.OversizeDrops, sent)
		} else if float64(sc.OversizeDrops) < 0.99*float64(sent) {
			res.warn("node counted %d oversize drops of %d sent: the rest never reached it", sc.OversizeDrops, sent)
		}
	}
	if cc.PersistErrors > 0 || cc.UnlocksRefusedForged > 0 {
		res.guard("node reported faults: persist_errors=%d forged_tokens=%d", cc.PersistErrors, cc.UnlocksRefusedForged)
	}

	// Warnings: the host or the generator disturbed the measurement. The
	// numbers are suspect, the program is not.
	if lg.sendErr != nil {
		res.warn("generator send failed: %v", lg.sendErr)
	}
	if held < n/2 {
		res.warn("generator held its schedule in %d of %d segments of a boot", held, n)
	}
	if driverCPU > 2*subjectCPU {
		res.warn("generator CPU %.2f s exceeds twice the subject's %.2f s", driverCPU/1e9, subjectCPU/1e9)
	}

	if !res.opt.trace {
		return
	}
	res.segments("process.allocs_per_unit", allocs, onSchedule)
	res.segments("process.alloc_bytes_per_unit", allocBytes, onSchedule)
	res.segments("process.vol_ctx_switches_per_unit", ctx, onSchedule)
	res.segments("loadgen.cpu_us_per_unit", genCPUPerUnit, onSchedule)
	res.segments("loadgen.late_p99_us", lates, nil) // of every segment: this is what the others are chosen by
	res.boot("process.sys_cpu_share", float64(last.subject.Proc.CPUSysNs-first.subject.Proc.CPUSysNs)/subjectCPU)
	if sc.Batches > 0 {
		res.boot("serve.reqs_per_batch", float64(sc.Served+sc.Unavailable)/float64(sc.Batches))
	}
	// Counts are the run's totals.
	for name, n := range map[string]float64{
		"process.gc_cycles":            float64(last.subject.Proc.NumGC - first.subject.Proc.NumGC),
		"loadgen.sent":                 float64(attempted),
		"loadgen.lost":                 float64(attempted - answered),
		"loadgen.bad_response":         float64(answered - (attempted - failed)),
		"transport.send_errors":        float64(sc.SendErrors),
		"transport.oversize_drops":     float64(sc.OversizeDrops),
		"serve.received":               float64(sc.Received),
		"serve.served":                 float64(sc.Served),
		"serve.shed_queue_full":        float64(sc.ShedQueueFull),
		"serve.shed_rate_limited":      float64(sc.ShedRateLimited),
		"serve.unavailable":            float64(sc.Unavailable),
		"tsa.tokens_issued":            float64(sc.TokensIssued),
		"commit.locks_issued":          float64(cc.LocksIssued),
		"commit.unlocks_granted":       float64(cc.UnlocksGranted),
		"commit.unlocks_refused_early": float64(cc.UnlocksRefusedEarly),
		"commit.forged_tokens":         float64(cc.UnlocksRefusedForged),
		"commit.persist_errors":        float64(cc.PersistErrors),
	} {
		res.put(name, res.vals[name].v+n)
	}
}
