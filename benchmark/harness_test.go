package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"triadtime/internal/serve"
	"triadtime/internal/transport"
	"triadtime/internal/wire"
)

// The test binary doubles as the subject, as the benchmark binary does.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-role=subject") {
		subjectMain()
		return
	}
	runtime.GOMAXPROCS(max(8, runtime.NumCPU())) // as the driver's main does, and for its reason
	os.Exit(m.Run())
}

func TestQuietQuartile(t *testing.T) {
	// Twelve identical segments, four of them disturbed: the lower
	// quartile is the undisturbed cost, and the spread shows the damage.
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 19, 25, 40, 90}
	v, spread := quiet(xs)
	if v != 10 {
		t.Errorf("quiet value %v, want 10", v)
	}
	if spread <= 0.5 {
		t.Errorf("spread %v does not show four disturbed segments", spread)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if v, spread := quiet([]float64{7}); v != 7 || spread != 0 {
		t.Errorf("one segment: %v, %v", v, spread)
	}
	// A run reads a metric from the counted segments of all its boots;
	// when too few count, from every segment, with a warning.
	res := newResult("test", options{})
	res.segments("m", []float64{10, 10, 90, 10, 10}, []bool{true, true, false, true, true})
	res.segments("m", []float64{80, 10, 10, 10, 10}, []bool{false, true, true, true, true})
	res.segments("few", []float64{30, 10, 10, 10, 10, 10, 10, 10}, []bool{true, false, false, false, false, false, false, false})
	res.boot("b", 1)
	res.boot("b", 2)
	res.boot("b", 9)
	res.foldBoots()
	if got := res.vals["m"]; got.v != 10 || got.spread != 0 || len(res.series["m"].all) != 10 {
		t.Errorf("counted segments read %+v, want 10 with no spread", got)
	}
	if got := res.vals["few"]; got.v != 10 || len(res.warnings) != 1 {
		t.Errorf("too few counted segments: read %+v with warnings %v, want 10 from all of them and one warning", got, res.warnings)
	}
	if got := res.vals["b"].v; got != 2 {
		t.Errorf("median over boots %v, want 2", got)
	}
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	if p50, p99 := percentileU32(sorted, 0.5), percentileU32(sorted, 0.99); p50 != 500 || p99 != 990 {
		t.Errorf("nearest-rank percentiles %d, %d, want 500, 990", p50, p99)
	}
}

func TestRunSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives 7.2785, 8.18275; the median is 7.8735.
	xs := []float64{6.725, 8.17, 6.677, 9.069, 8.167, 7.563, 7.463, 8.255, 7.58, 9.129}
	if got, want := runSpread(xs), 0.14986981647297917; math.Abs(got-want) > 1e-12 {
		t.Errorf("runSpread = %v, want %v", got, want)
	}
	if got := runSpread([]float64{2, 4}); got != 2.0/3 {
		t.Errorf("two runs: spread %v, want 2/3", got)
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	if !slices.Equal(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", f.EndToEnd, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", f.PerLayer, perLayer)
	}
}

var testSpec = liveSpec{name: "test", honestRate: 5000, clients: 8, mix: [numOpKinds]int{opStamp: 100}}

// stallingServer answers TimeRequests correctly, except that once,
// stallAt after its first datagram, it stops reading for stall.
func stallingServer(t *testing.T, key []byte, stallAt, stall time.Duration) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Everything sent during the stall has to fit in the socket buffer.
	if err := conn.SetReadBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := wire.NewSealer(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 2048)
		var plain [wire.TimeResponseSize]byte
		var first time.Time
		stalled := false
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if first.IsZero() {
				first = time.Now()
			}
			if !stalled && time.Since(first) >= stallAt {
				stalled = true
				time.Sleep(stall)
			}
			pt, _, err := opener.OpenDatagramInto(nil, buf[:n])
			if err != nil {
				continue
			}
			req, err := wire.UnmarshalTimeRequest(pt)
			if err != nil {
				continue
			}
			wire.TimeResponse{ClientID: req.ClientID, Seq: req.Seq, Status: wire.StatusOK, Nanos: time.Now().UnixNano()}.MarshalInto(plain[:])
			if _, err := conn.WriteToUDP(sealer.SealDatagramAppend(nil, plain[:]), from); err != nil {
				return
			}
		}
	}()
	return conn
}

// TestOpenLoopCountsTheStall is the coordinated-omission test: while
// the server stalls 50 ms the generator keeps its schedule, and every
// request that was due during the stall is charged the wait it really
// had. A generator that waited for answers would report one slow
// request; this one must report about 50 ticks' worth.
func TestOpenLoopCountsTheStall(t *testing.T) {
	// A host that freezes for a few hundred milliseconds inside the one
	// second this takes (this one does, about once a minute) delays
	// everything; a generator that omits does so every time. Three tries.
	var why string
	for try := 0; try < 3; try++ {
		if why = openLoopAgainstStall(t); why == "" {
			return
		}
		t.Logf("try %d: %s", try, why)
	}
	t.Error(why)
}

// openLoopAgainstStall runs the generator against a server that stalls
// once and says what, if anything, was wrong with the latencies.
func openLoopAgainstStall(t *testing.T) string {
	const stall = 50 * time.Millisecond
	key := bootKey(7, 0)
	srv := stallingServer(t, key, 400*time.Millisecond, stall)
	defer srv.Close()
	// 100 ms of warm-up, then 800 ms measured: the stall falls inside.
	lg, err := newLoadgen(&testSpec, srv.LocalAddr().String(), key, 7, int(100*time.Millisecond/tickPeriod), int(800*time.Millisecond/segLen))
	if err != nil {
		t.Fatal(err)
	}
	lg.start(time.Now().Add(2 * time.Millisecond))
	runSchedule(lg, nil, lg.totalTicks(), func() {})
	lg.finish(200 * time.Millisecond)

	var lat []uint32
	sent, ok := 0, 0
	for i := range lg.segs {
		sent += lg.segs[i].sent
		ok += lg.segs[i].ok
		lat = append(lat, lg.segs[i].lat...)
	}
	if lg.bad > 0 || ok != sent || sent == 0 {
		return fmt.Sprintf("sent %d ok %d bad %d (%s)", sent, ok, lg.bad, lg.firstBad)
	}
	half := 0
	var worst uint32
	for _, l := range lat {
		if time.Duration(l) >= stall/2 {
			half++
		}
		worst = max(worst, l)
	}
	// Requests due in the first half of the stall waited at least the
	// second half: 25 ms' worth of the rate, give or take scheduling.
	if want := int(0.8 * float64(testSpec.honestRate) * (stall / 2).Seconds()); half < want {
		return fmt.Sprintf("%d requests waited >= %v, want at least %d: the stall was not charged to the requests due during it", half, stall/2, want)
	}
	if time.Duration(worst) < stall*9/10 {
		return fmt.Sprintf("worst latency %v, want about %v", time.Duration(worst), stall)
	}
	slices.Sort(lat)
	if p50 := time.Duration(percentileU32(lat, 0.5)); p50 > 5*time.Millisecond {
		return fmt.Sprintf("median latency %v: the stall leaked into undisturbed requests", p50)
	}
	return ""
}

// TestFailedSetUpIsDiscarded: when the workload's set-up traffic gets no
// answer, connect reports it and discard returns — the receivers it
// would wait for were never started.
func TestFailedSetUpIsDiscarded(t *testing.T) {
	// An address nothing listens on: a socket opened and closed again.
	gone, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dead := gone.LocalAddr().String()
	gone.Close()
	// ops_mixed fails minting tokens, with only the honest socket open;
	// stamp_abuse fails delivering the replayer's originals, with both.
	for _, name := range []string{"ops_mixed", "stamp_abuse"} {
		b := &liveBoot{}
		if err := b.connect(findLiveSpec(name), dead, bootKey(3, 0), 3, 1); err == nil {
			t.Errorf("%s: set-up against a dead address succeeded", name)
		}
		done := make(chan struct{})
		go func() {
			b.discard()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: discard hangs after a failed set-up", name)
		}
	}
}

// TestTickSchedule: the jittered schedule is a function of the seed,
// keeps the mean period, and never brings two ticks closer than the
// catch-up gap.
func TestTickSchedule(t *testing.T) {
	const n = 20000
	same := true
	for k := 0; k < n; k++ {
		due, next := tickDue(9, k), tickDue(9, k+1)
		if due != tickDue(9, k) {
			t.Fatalf("tick %d is not a function of (seed, k)", k)
		}
		if gap := time.Duration(next - due); gap < catchUpGap || gap >= tickPeriod+tickPeriod/2 {
			t.Fatalf("gap after tick %d is %v, want [%v, %v)", k, gap, catchUpGap, tickPeriod+tickPeriod/2)
		}
		same = same && due == tickDue(10, k)
	}
	if same {
		t.Error("two seeds gave the same schedule")
	}
	if end := time.Duration(tickDue(9, n)); end < n*tickPeriod || end > n*tickPeriod+tickPeriod/2 {
		t.Errorf("tick %d is due at %v: the schedule drifted off its %v period", n, end, tickPeriod)
	}
}

func TestHonestStreamIsAFunctionOfTheSeed(t *testing.T) {
	spec := findLiveSpec("ops_mixed")
	stream := func(seed uint64) []reqMeta {
		g, err := newHonestGen(spec, bootKey(seed, 0), seed)
		if err != nil {
			t.Fatal(err)
		}
		g.ripe = make([][wire.CommitTokenSize]byte, tokenPool)
		g.unripe = make([][wire.CommitTokenSize]byte, tokenPool)
		var out []reqMeta
		for i := 0; i < 2000; i++ {
			_, m := g.next(nil, 0)
			out = append(out, m)
		}
		return out
	}
	a, b, c := stream(3), stream(3), stream(4)
	if !slices.Equal(a, b) {
		t.Error("same seed, different streams")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds, same stream")
	}
	var kinds [numOpKinds]int
	for _, m := range a {
		kinds[m.kind]++
	}
	for k, pct := range spec.mix {
		if got := float64(kinds[k]) / 20; math.Abs(got-float64(pct)) > 4 {
			t.Errorf("kind %d is %.1f%% of the stream, spec says %d%%", k, got, pct)
		}
	}
}

// TestAbuseCrafting checks that each class of hostile datagram is what
// it claims to be, against the same wire and serve calls the node makes.
func TestAbuseCrafting(t *testing.T) {
	spec := findLiveSpec("stamp_abuse")
	key := bootKey(5, 0)
	g, err := newAbuseGen(spec, key, 5)
	if err != nil {
		t.Fatal(err)
	}
	opener, err := wire.NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New[transport.Sockaddr](serve.Config{
		RatePerClient: spec.ratePerClient,
		Clock:         serve.ClockFunc(func() (int64, error) { return 1, nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.replays {
		if _, _, err := opener.OpenDatagramInto(nil, d); err != nil {
			t.Fatalf("replay original rejected: %v", err)
		}
	}
	var seen [numAbuseClasses]int
	hotAdmitted, hotShed := 0, 0
	for i := 0; i < 20000; i++ {
		d, class, seq := g.next(nil)
		seen[class]++
		pt, sender, err := opener.OpenDatagramInto(nil, d)
		switch class {
		case abForged:
			if err == nil {
				t.Fatal("forged datagram authenticated")
			}
		case abReplay:
			if err == nil {
				t.Fatal("replayed datagram accepted")
			}
		case abOversize:
			if len(d) <= spec.maxRequest() {
				t.Fatalf("oversize datagram is %d bytes, limit %d", len(d), spec.maxRequest())
			}
		case abHot:
			if err != nil || sender != abuseSender {
				t.Fatalf("hot datagram: sender %d, err %v", sender, err)
			}
			req, err := wire.UnmarshalTimeRequest(pt)
			if err != nil || req.ClientID != hotClient || req.Seq != seq {
				t.Fatalf("hot request %+v, err %v", req, err)
			}
			// All at one instant: the bucket's burst is all it gets.
			if _, shed := srv.Submit(0, req, transport.Sockaddr{}); shed {
				hotShed++
			} else {
				hotAdmitted++
				srv.Drain(srv.ShardOf(hotClient), 0, nil)
			}
		}
	}
	for c, pct := range abuseMix {
		if got := float64(seen[c]) / 200; math.Abs(got-float64(pct)) > 3 {
			t.Errorf("class %d is %.1f%% of the stream, want %d%%", c, got, pct)
		}
	}
	if hotAdmitted != int(spec.ratePerClient) || hotShed == 0 {
		t.Errorf("hot client: %d admitted (want its burst of %.0f), %d shed", hotAdmitted, spec.ratePerClient, hotShed)
	}
}

func TestSimDigestIsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulation passes")
	}
	for i := range simSpecs {
		spec := &simSpecs[i]
		s, err := newSimSubject(subjectConfig{Workload: spec.name, Seed: goldenSeed})
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.pass()
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.pass()
		if err != nil {
			t.Fatal(err)
		}
		want, err := goldenDigest(spec.name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest || a.Digest != want {
			t.Errorf("%s: passes digest %.12s and %.12s, golden.json says %.12s", spec.name, a.Digest, b.Digest, want)
		}
	}
}

// TestSteppedClusterMatchesExperiment: the cluster the traced run steps
// is a copy of set-up code internal/experiment does not export. The
// trace itself refuses to report when the copy's counts differ from the
// original's; here, on the held-out seed, it must not refuse, and the
// topology's isolation window must have bitten in the copy too.
func TestSteppedClusterMatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("steps two clusters five times each")
	}
	for i := range simSpecs {
		spec := &simSpecs[i]
		s, err := newSimSubject(subjectConfig{Workload: spec.name, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.trace(newSpanRecorder())
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if rep.Layers["sim.events"] == 0 || rep.Layers["engine.ta_refs"] == 0 {
			t.Errorf("%s: stepped run counted %v events, %v authority references", spec.name, rep.Layers["sim.events"], rep.Layers["engine.ta_refs"])
		}
		if spec.name == "sim_scale" && rep.Layers["engine.holdovers"] == 0 {
			t.Error("sim_scale: the isolated region's nodes never held over")
		}
	}
}

// TestHeldOutSeedRunsClean runs a whole workload end to end — subject
// process, set-up, open-loop load, every answer checked, guards — on a
// seed nothing else in this package uses.
func TestHeldOutSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of live traffic")
	}
	if raceEnabled {
		t.Skip("a node built with the race detector cannot hold the workloads' rates")
	}
	t.Setenv("BENCH_OUT_DIR", t.TempDir())
	for _, name := range []string{"ops_mixed", "stamp_abuse"} {
		res, err := runWorkload(name, options{seed: 2, seconds: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A few requests lost to a stalled host are a warning, as in a
		// real run; anything answered wrongly is a guard.
		if len(res.guards) > 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d failed %d guards %v", name, res.attempted, res.failed, res.guards)
		}
		for _, d := range endToEnd {
			if v := res.vals[d.Name].v; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, d.Name, v)
			}
		}
	}
}
