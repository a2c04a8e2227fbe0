package enclave

import (
	"math"
	"testing"
	"time"

	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
)

func monitorRig(t *testing.T) (*sim.Scheduler, *SimPlatform) {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(71)
	net := simnet.New(sched, rng.Fork(0), simnet.Link{Base: time.Millisecond})
	p := NewSimPlatform(sched, rng, net, SimConfig{
		Addr: 1,
		TSC:  simtime.NewTSC(simtime.NominalTSCHz, 0),
	})
	return sched, p
}

func TestMemCheckBasics(t *testing.T) {
	sched, p := monitorRig(t)
	log := recordWindows(p, true)
	sched.RunUntil(simtime.FromDuration(20 * time.Millisecond))
	p.touchMonitor()
	if len(*log) < 3 {
		t.Fatalf("%d windows judged in 20ms, want 3", len(*log))
	}
	ideal := PaperMemModel().IdealMem(15e6, simtime.NominalTSCHz)
	for _, w := range *log {
		if math.Abs(w.mem-ideal)/ideal > 0.05 {
			t.Errorf("mem count = %v, want ~%v", w.mem, ideal)
		}
	}
}

// windowsAround runs a monitor that never calls back for 20ms, applies
// change, runs 20ms more and returns the last window judged before and
// the last after.
func windowsAround(t *testing.T, change func(*sim.Scheduler, *SimPlatform)) (before, after judged) {
	t.Helper()
	sched, p := monitorRig(t)
	log := recordWindows(p, true)
	sched.RunUntil(simtime.FromDuration(20 * time.Millisecond))
	change(sched, p)
	n := len(*log)
	sched.RunUntil(simtime.FromDuration(40 * time.Millisecond))
	p.touchMonitor()
	if n < 2 || len(*log) < n+2 {
		t.Fatalf("%d windows judged before the change and %d after", n, len(*log)-n)
	}
	return (*log)[n-1], (*log)[len(*log)-1]
}

func TestMemCheckFrequencyIndependent(t *testing.T) {
	// Halving the core frequency shifts INC counts but leaves memory
	// counts untouched — the disambiguator of §IV-A.1.
	before, after := windowsAround(t, func(_ *sim.Scheduler, p *SimPlatform) {
		p.SetCoreFreqHz(simtime.PaperCoreHz / 2)
		if p.CoreFreqHz() != simtime.PaperCoreHz/2 {
			t.Fatal("SetCoreFreqHz did not apply")
		}
	})
	if r := after.inc / before.inc; math.Abs(r-0.5) > 0.01 {
		t.Errorf("INC ratio after halving freq = %v, want ~0.5", r)
	}
	if r := after.mem / before.mem; math.Abs(r-1) > 0.05 {
		t.Errorf("mem ratio after halving freq = %v, want ~1", r)
	}
}

func TestMemCheckDetectsTSCScaling(t *testing.T) {
	before, after := windowsAround(t, func(sched *sim.Scheduler, p *SimPlatform) {
		p.TSC().SetScale(1.25, sched.Now())
	})
	if r := after.mem / before.mem; math.Abs(r-1/1.25) > 0.05 {
		t.Errorf("mem ratio under 1.25x TSC scale = %v, want ~0.8", r)
	}
}

func TestMemCheckInterruptedAndOverlap(t *testing.T) {
	sched, p := monitorRig(t)
	log := recordWindows(p, true)
	sched.At(simtime.FromDuration(time.Millisecond), p.FireAEX)
	sched.RunUntil(simtime.FromDuration(6 * time.Millisecond))
	p.touchMonitor()
	if len(*log) != 0 {
		t.Errorf("an AEX 1ms into a 5.2ms window, yet %d windows judged by 6ms", len(*log))
	}
	defer func() {
		if recover() == nil {
			t.Error("a second monitor on one monitoring thread should panic")
		}
	}()
	recordWindows(p, true)
}

func TestSetCoreFreqValidation(t *testing.T) {
	_, p := monitorRig(t)
	defer func() {
		if recover() == nil {
			t.Error("non-positive frequency should panic")
		}
	}()
	p.SetCoreFreqHz(0)
}

func runMonitor(t *testing.T, enableMem bool, manipulate func(*sim.Scheduler, *SimPlatform)) (discrepancies, freqChanges int) {
	t.Helper()
	sched, p := monitorRig(t)
	m := NewRateMonitor(p, MonitorConfig{
		INCTicks:      15e6,
		INCTol:        0.005,
		EnableMem:     enableMem,
		OnDiscrepancy: func(rel float64) { discrepancies++ },
		OnFreqChange:  func(rel float64) { freqChanges++ },
	})
	m.Start()
	m.Start() // idempotent
	sched.RunUntil(simtime.FromSeconds(1))
	manipulate(sched, p)
	sched.RunUntil(sched.Now().Add(2 * time.Second))
	return discrepancies, freqChanges
}

func TestRateMonitorCleanRunIsQuiet(t *testing.T) {
	d, f := runMonitor(t, true, func(*sim.Scheduler, *SimPlatform) {})
	if d != 0 || f != 0 {
		t.Errorf("clean run produced %d discrepancies, %d freq changes", d, f)
	}
}

func TestRateMonitorINCOnlyCatchesScaling(t *testing.T) {
	d, _ := runMonitor(t, false, func(sched *sim.Scheduler, p *SimPlatform) {
		p.TSC().SetScale(1.1, sched.Now())
	})
	if d == 0 {
		t.Error("INC-only monitor missed a bare 10% TSC scaling")
	}
}

func TestRateMonitorINCOnlyMissesDVFSMaskedScaling(t *testing.T) {
	// The masking attack: scale the guest TSC by 0.8 AND drop the core
	// from 3500MHz to the discrete 2800MHz point (also 0.8x). The INC
	// count is unchanged; without the memory monitor nothing fires.
	d, _ := runMonitor(t, false, func(sched *sim.Scheduler, p *SimPlatform) {
		p.TSC().SetScale(0.8, sched.Now())
		p.SetCoreFreqHz(2800e6)
	})
	if d != 0 {
		t.Errorf("INC-only monitor fired %d times; the masked attack should slip through (that is the vulnerability)", d)
	}
}

func TestRateMonitorDualCatchesDVFSMaskedScaling(t *testing.T) {
	d, _ := runMonitor(t, true, func(sched *sim.Scheduler, p *SimPlatform) {
		p.TSC().SetScale(0.8, sched.Now())
		p.SetCoreFreqHz(2800e6)
	})
	if d == 0 {
		t.Error("dual monitor missed the DVFS-masked TSC scaling")
	}
}

func TestRateMonitorHonestDVFSIsFreqChangeNotTampering(t *testing.T) {
	d, f := runMonitor(t, true, func(sched *sim.Scheduler, p *SimPlatform) {
		p.SetCoreFreqHz(2800e6) // legal governor change, TSC untouched
	})
	if d != 0 {
		t.Errorf("honest DVFS flagged as tampering %d times", d)
	}
	if f == 0 {
		t.Error("honest DVFS not surfaced as a frequency change")
	}
}

func TestRateMonitorResetRelearnsBaseline(t *testing.T) {
	sched, p := monitorRig(t)
	discrepancies := 0
	m := NewRateMonitor(p, MonitorConfig{
		INCTicks:      15e6,
		INCTol:        0.005,
		OnDiscrepancy: func(rel float64) { discrepancies++ },
	})
	m.Start()
	sched.RunUntil(simtime.FromSeconds(1))
	p.TSC().SetScale(1.1, sched.Now())
	m.Reset() // a recalibration just happened: accept the new relation
	sched.RunUntil(sched.Now().Add(time.Second))
	if discrepancies != 0 {
		t.Errorf("monitor fired %d times after an authorized Reset", discrepancies)
	}
}
