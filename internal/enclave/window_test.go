package enclave

import (
	"math/rand"
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

// monitoredCores builds n platforms on one scheduler, each running a
// RateMonitor over the paper's 15e6-tick window — the monitoring load of
// an n-node cluster with nothing else going on.
func monitoredCores(n int, enableMem bool) *sim.Scheduler {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(7)
	net := simnet.New(sched, rng.Fork(0), simnet.Link{Base: time.Millisecond})
	for i := 0; i < n; i++ {
		p := NewSimPlatform(sched, rng.Fork(uint64(i+1)), net, SimConfig{
			Addr: simnet.Addr(i + 1),
			TSC:  simtime.NewTSC(simtime.NominalTSCHz, uint64(i+1)*7e9),
		})
		NewRateMonitor(p, MonitorConfig{
			INCTicks:      15e6,
			INCTol:        0.005,
			EnableMem:     enableMem,
			OnDiscrepancy: func(float64) {},
		}).Start()
	}
	return sched
}

// TestMonitorWindowZeroAllocSteadyState is the allocation gate CI runs
// on the monitoring loop: finishing a window, judging its count and
// starting the next must not allocate, with or without the memory
// monitor beside the INC one.
func TestMonitorWindowZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name      string
		enableMem bool
	}{{"INC", false}, {"INC+Mem", true}} {
		t.Run(tc.name, func(t *testing.T) {
			sched := monitoredCores(1, tc.enableMem)
			for i := 0; i < 64; i++ { // past warm-up and baseline learning
				sched.Step()
			}
			if allocs := testing.AllocsPerRun(1000, func() { sched.Step() }); allocs != 0 {
				t.Errorf("a monitoring window allocates %.1f objects, want 0", allocs)
			}
		})
	}
}

// BenchmarkMonitorWindow times one monitoring window end to end — timer
// fire, count, baseline comparison, next window armed — on a hardened
// three-node cluster's worth of cores (six interleaved window chains),
// with a few far-off events standing in for the cluster's other pending
// work.
func BenchmarkMonitorWindow(b *testing.B) {
	sched := monitoredCores(3, true)
	for i := 0; i < 8; i++ {
		sched.At(simtime.FromDuration(1000*time.Hour), func() {})
	}
	for i := 0; i < 64; i++ {
		sched.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
}

// TestWindowMemosMatchFormulas drives INC and memory windows through a
// random script of everything that can change a window's length or
// count — rescales and jumps of the guest TSC (between windows and in
// the middle of one), core frequency changes, AEX interruptions and a
// changing window size — and requires every completion instant and
// every count to equal, bit for bit, what the un-memoised formulas give:
// TimeOfReaching for the end, elapsed seconds times rate for the count.
// The noise models are zeroed so that the reported count is the ideal
// one.
func TestWindowMemosMatchFormulas(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		rnd := rand.New(rand.NewSource(trial + 1))
		sched := sim.NewScheduler()
		rng := sim.NewRNG(uint64(trial))
		net := simnet.New(sched, rng.Fork(0), simnet.Link{Base: time.Millisecond})
		tsc := simtime.NewTSC(simtime.NominalTSCHz, 7e9)
		core := simtime.PaperCore()
		memModel := MemModel{AccessesPerSec: 1.2e8}
		p := NewSimPlatform(sched, rng, net, SimConfig{
			Addr:     1,
			TSC:      tsc,
			Core:     core,
			INCModel: INCModel{OutlierOffset: 1}, // non-zero, so kept; adds no noise
			MemModel: memModel,
		})

		// One chain per window kind. Each records where the formulas put
		// the end of the window in flight; a manipulation moves it.
		type chain struct {
			start   func(ticks uint64, done func(float64, bool))
			ideal   func(elapsed time.Duration) float64
			ticks   uint64
			began   simtime.Instant
			target  uint64
			wantEnd simtime.Instant
			windows int
		}
		inc := &chain{start: p.StartINCCheck, ideal: func(elapsed time.Duration) float64 {
			return elapsed.Seconds() * p.CoreFreqHz() / core.CyclesPerINC
		}}
		mem := &chain{start: p.StartMemCheck, ideal: func(elapsed time.Duration) float64 {
			return elapsed.Seconds() * memModel.AccessesPerSec
		}}
		var begin func(c *chain)
		begin = func(c *chain) {
			if rnd.Intn(8) == 0 || c.ticks == 0 {
				c.ticks = uint64(1e6 + rnd.Intn(3)*7e6)
			}
			c.began = sched.Now()
			c.target = tsc.ReadAt(c.began) + c.ticks
			c.wantEnd = tsc.TimeOfReaching(c.target, c.began)
			c.start(c.ticks, func(count float64, interrupted bool) {
				if !interrupted {
					c.windows++
					if sched.Now() != c.wantEnd {
						t.Fatalf("trial %d: window ended at %v, TimeOfReaching says %v", trial, sched.Now(), c.wantEnd)
					}
					if want := c.ideal(sched.Now().Sub(c.began)); count != want {
						t.Fatalf("trial %d: window counted %v, the formula gives %v", trial, count, want)
					}
				}
				begin(c)
			})
		}
		begin(inc)
		begin(mem)
		moved := func() {
			now := sched.Now()
			inc.wantEnd = tsc.TimeOfReaching(inc.target, now)
			mem.wantEnd = tsc.TimeOfReaching(mem.target, now)
		}

		var disturb func()
		disturb = func() {
			switch rnd.Intn(5) {
			case 0:
				tsc.SetScale(0.5+rnd.Float64(), sched.Now())
				moved()
			case 1:
				tsc.Jump(int64(rnd.Intn(20e6))-10e6, sched.Now())
				moved()
			case 2:
				p.SetCoreFreqHz([]float64{2800e6, 3500e6, 4200e6}[rnd.Intn(3)])
			case 3:
				p.FireAEX()
			case 4:
				tsc.SetScale(1, sched.Now()) // back to the honest rate
				moved()
			}
			sched.After(simtime.FromDuration(time.Duration(rnd.Intn(20e6))), disturb)
		}
		sched.After(simtime.FromDuration(3*time.Millisecond), disturb)
		sched.RunUntil(simtime.FromSeconds(2))
		if inc.windows < 100 || mem.windows < 100 {
			t.Fatalf("trial %d: only %d INC and %d memory windows completed", trial, inc.windows, mem.windows)
		}
	}
}
