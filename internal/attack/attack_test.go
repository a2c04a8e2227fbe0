package attack

import (
	"math"
	"testing"
	"time"

	"triadtime/internal/authority"
	"triadtime/internal/core"
	"triadtime/internal/enclave"
	"triadtime/internal/engine"
	"triadtime/internal/sim"
	"triadtime/internal/simnet"
	"triadtime/internal/simtime"
	"triadtime/internal/wire"
)

const taAddr simnet.Addr = 100

func testKey() []byte {
	key := make([]byte, wire.KeySize)
	for i := range key {
		key[i] = byte(i + 3)
	}
	return key
}

func TestModeString(t *testing.T) {
	if ModeFPlus.String() != "F+" || ModeFMinus.String() != "F-" || Mode(9).String() != "Mode(?)" {
		t.Error("Mode.String misbehaves")
	}
}

func TestDelayClassification(t *testing.T) {
	tests := []struct {
		name        string
		mode        Mode
		hold        time.Duration
		wantDelayed bool
	}{
		{"F+ delays high-s", ModeFPlus, time.Second, true},
		{"F+ passes low-s", ModeFPlus, time.Millisecond, false},
		{"F- delays low-s", ModeFMinus, time.Millisecond, true},
		{"F- passes high-s", ModeFMinus, time.Second, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: tt.mode})
			req := simnet.Packet{From: 3, To: taAddr}
			resp := simnet.Packet{From: taAddr, To: 3}
			v := d.Process(simtime.Epoch, req)
			if v.Drop || v.ExtraDelay != 0 {
				t.Fatal("requests must pass untouched")
			}
			v = d.Process(simtime.Epoch.Add(tt.hold), resp)
			if got := v.ExtraDelay > 0; got != tt.wantDelayed {
				t.Errorf("delayed = %v, want %v (hold %v)", got, tt.wantDelayed, tt.hold)
			}
			if tt.wantDelayed {
				if v.ExtraDelay != 100*time.Millisecond {
					t.Errorf("ExtraDelay = %v, want default 100ms", v.ExtraDelay)
				}
				if d.Delayed() != 1 || d.Passed() != 0 {
					t.Errorf("counters = %d/%d", d.Delayed(), d.Passed())
				}
			} else if d.Passed() != 1 {
				t.Errorf("Passed = %d, want 1", d.Passed())
			}
		})
	}
}

// TestClassifierHoldMatching: each response is matched to the oldest
// outstanding request, and one with none counts as a zero hold.
func TestClassifierHoldMatching(t *testing.T) {
	ms := int64(time.Millisecond)
	c := Classifier{Mode: ModeFPlus, Threshold: 250 * ms}
	c.Request(0)
	c.Request(1000 * ms)
	if !c.Response(300 * ms) { // a 300ms hold: matched to the request at 0
		t.Error("first response not matched to the oldest request")
	}
	if c.Response(1200 * ms) { // a 200ms hold: matched to the request at 1s
		t.Error("second response not matched to the second request")
	}
	if c.Response(5000 * ms) {
		t.Error("unmatched response should count as a zero hold")
	}
}

// TestClassifierMatchesDelay feeds one request/response timeline, with
// retries and an unmatched response, to the simulated middlebox and to
// a bare Classifier (as the live proxy drives it): both take the same
// delay decision for every response, in both modes.
func TestClassifierMatchesDelay(t *testing.T) {
	type event struct {
		at       time.Duration
		response bool
	}
	timeline := []event{
		{0, false}, {2 * time.Millisecond, true}, // low hold
		{10 * time.Millisecond, false}, {1010 * time.Millisecond, true}, // high hold
		{1100 * time.Millisecond, false}, {1150 * time.Millisecond, false}, // a retry
		{1600 * time.Millisecond, true}, {1605 * time.Millisecond, true}, // 500ms: on the threshold
		{3000 * time.Millisecond, true}, // no outstanding request
	}
	for _, mode := range []Mode{ModeFPlus, ModeFMinus} {
		d := NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: mode})
		c := Classifier{Mode: mode, Threshold: int64(500 * time.Millisecond)}
		var fromDelay, fromClassifier []bool
		for _, e := range timeline {
			now := simtime.Epoch.Add(e.at)
			if !e.response {
				d.Process(now, simnet.Packet{From: 3, To: taAddr})
				c.Request(int64(e.at))
				continue
			}
			v := d.Process(now, simnet.Packet{From: taAddr, To: 3})
			fromDelay = append(fromDelay, v.ExtraDelay > 0)
			fromClassifier = append(fromClassifier, c.Response(int64(e.at)))
		}
		want := []bool{false, true, true, false, false} // F+: only the 1s and 500ms holds
		for i := range want {
			if mode == ModeFMinus {
				want[i] = !want[i]
			}
			if fromDelay[i] != want[i] || fromClassifier[i] != want[i] {
				t.Errorf("%v response %d: Delay %v, Classifier %v, want %v",
					mode, i, fromDelay[i], fromClassifier[i], want[i])
			}
		}
	}
}

func TestDelayIgnoresUnrelatedTraffic(t *testing.T) {
	d := NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: ModeFMinus})
	for _, pkt := range []simnet.Packet{
		{From: 1, To: 2},      // peer traffic
		{From: 1, To: taAddr}, // another node's TA request
		{From: taAddr, To: 1}, // another node's TA response
	} {
		if v := d.Process(simtime.Epoch, pkt); v.Drop || v.ExtraDelay != 0 {
			t.Errorf("unrelated packet %+v touched", pkt)
		}
	}
	if d.Delayed() != 0 {
		t.Error("unrelated traffic counted as delayed")
	}
}

func TestDelayResponseWithoutRequestTreatedAsLowHold(t *testing.T) {
	d := NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: ModeFMinus})
	v := d.Process(simtime.FromSeconds(5), simnet.Packet{From: taAddr, To: 3})
	if v.ExtraDelay == 0 {
		t.Error("F- should delay an unmatched (hold≈0) response")
	}
}

// attackRig: one victim node + TA, with an optional delay attack.
func attackRig(t *testing.T, mode Mode) (*sim.Scheduler, *engine.Node, *Delay) {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(77)
	network := simnet.New(sched, rng.Fork(0), simnet.Link{Base: 100 * time.Microsecond})
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		t.Fatal(err)
	}
	var box *Delay
	if mode != 0 {
		box = NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: mode})
		network.AttachMiddlebox(box)
	}
	p := enclave.NewSimPlatform(sched, rng.Fork(1), network, enclave.SimConfig{
		Addr: 3,
		TSC:  simtime.NewTSC(simtime.NominalTSCHz, 0),
	})
	node, err := core.NewNode(p, core.Config{Config: engine.Config{Key: testKey(), Addr: 3, Authority: taAddr}})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	return sched, node, box
}

func TestFPlusInflatesCalibratedRate(t *testing.T) {
	sched, node, box := attackRig(t, ModeFPlus)
	sched.RunUntil(simtime.FromSeconds(60))
	if node.State() != core.StateOK {
		t.Fatalf("state = %v", node.State())
	}
	// F+ with 100ms on 1s sleeps: F_calib ≈ 1.1 * F_TSC (paper: 2900MHz
	// -> 3191MHz).
	ratio := node.FCalib() / simtime.NominalTSCHz
	if math.Abs(ratio-1.1) > 0.002 {
		t.Errorf("FCalib/F_TSC = %v, want ~1.1", ratio)
	}
	if box.Delayed() == 0 {
		t.Error("attack never delayed a response")
	}
	// Perceived clock runs slow: ~-91ms per reference second.
	start, _ := node.ClockReading()
	startRef := sched.Now()
	sched.RunUntil(startRef.Add(10 * time.Second))
	end, _ := node.ClockReading()
	rate := float64(end-start) / float64(sched.Now().Sub(startRef))
	if math.Abs(rate-1/1.1) > 0.002 {
		t.Errorf("clock rate = %v, want ~%v (-91ms/s)", rate, 1/1.1)
	}
}

func TestFMinusDeflatesCalibratedRate(t *testing.T) {
	sched, node, _ := attackRig(t, ModeFMinus)
	sched.RunUntil(simtime.FromSeconds(60))
	if node.State() != core.StateOK {
		t.Fatalf("state = %v", node.State())
	}
	// F- with 100ms on 0s sleeps: F_calib ≈ 0.9 * F_TSC (paper: 2610MHz).
	ratio := node.FCalib() / simtime.NominalTSCHz
	if math.Abs(ratio-0.9) > 0.002 {
		t.Errorf("FCalib/F_TSC = %v, want ~0.9", ratio)
	}
	// Perceived clock runs fast: ~+111ms per reference second.
	start, _ := node.ClockReading()
	startRef := sched.Now()
	sched.RunUntil(startRef.Add(10 * time.Second))
	end, _ := node.ClockReading()
	rate := float64(end-start) / float64(sched.Now().Sub(startRef))
	if math.Abs(rate-1/0.9) > 0.002 {
		t.Errorf("clock rate = %v, want ~%v (+111ms/s)", rate, 1/0.9)
	}
}

func TestNoAttackBaseline(t *testing.T) {
	sched, node, _ := attackRig(t, 0)
	sched.RunUntil(simtime.FromSeconds(60))
	ratio := node.FCalib() / simtime.NominalTSCHz
	if math.Abs(ratio-1) > 1e-5 {
		t.Errorf("FCalib/F_TSC = %v without attack, want ~1", ratio)
	}
}

func TestTSCAttackScheduling(t *testing.T) {
	sched := sim.NewScheduler()
	tsc := simtime.NewTSC(1e9, 0)
	a := NewTSCAttack(sched, tsc)
	a.ScaleAt(simtime.FromSeconds(1), 2.0)
	a.JumpAt(simtime.FromSeconds(2), 500)
	sched.RunUntil(simtime.FromSeconds(3))
	// 1s at 1GHz + 1s at 2GHz + 500 jump + 1s at 2GHz.
	want := uint64(1e9 + 2e9 + 500 + 2e9)
	if got := tsc.ReadAt(simtime.FromSeconds(3)); got != want {
		t.Errorf("TSC = %d, want %d", got, want)
	}
}

// TestTheilSenAloneDoesNotStopClassDelays documents why the hardened
// protocol abandons sleep-based regression instead of merely swapping
// in a robust estimator: the F+/F- attacks delay an entire timing
// class, not a minority of samples, so the median of pairwise slopes
// is corrupted just like OLS.
func TestTheilSenAloneDoesNotStopClassDelays(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(88)
	network := simnet.New(sched, rng.Fork(0), simnet.Link{Base: 100 * time.Microsecond})
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		t.Fatal(err)
	}
	network.AttachMiddlebox(NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: ModeFPlus}))
	p := enclave.NewSimPlatform(sched, rng.Fork(1), network, enclave.SimConfig{
		Addr: 3,
		TSC:  simtime.NewTSC(simtime.NominalTSCHz, 0),
	})
	node, err := core.NewNode(p, core.Config{
		Config: engine.Config{Key: testKey(), Addr: 3, Authority: taAddr},
		// A richer sleep grid plus the robust estimator: still falls.
		CalibSleeps:          []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second},
		CalibSamplesPerSleep: 2,
		Regression:           core.RegressionTheilSen,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	sched.RunUntil(simtime.FromSeconds(120))
	if node.FCalib() == 0 {
		t.Fatal("calibration never completed")
	}
	ratio := node.FCalib() / simtime.NominalTSCHz
	if ratio < 1.02 {
		t.Errorf("TheilSen ratio = %v; expected the class-delay attack to still corrupt the slope visibly", ratio)
	}
}

// TestRateMonitorsDoNotStopCalibrationAttacks verifies the paper's
// §IV-A.1 conclusion verbatim: even a monitoring stack that locks the
// attacker out of manipulating the TSC rate and offset "is not
// sufficient to protect against an attacker manipulating the TEE's
// time perception: the attacker can still impact what duration of real
// elapsed time is equated to a number of TSC increments" — the F+/F-
// attacks corrupt calibration without ever touching the TSC.
func TestRateMonitorsDoNotStopCalibrationAttacks(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(99)
	network := simnet.New(sched, rng.Fork(0), simnet.Link{Base: 100 * time.Microsecond})
	if _, err := authority.NewSimBinding(sched, network, testKey(), taAddr); err != nil {
		t.Fatal(err)
	}
	network.AttachMiddlebox(NewDelay(DelayConfig{Victim: 3, Authority: taAddr, Mode: ModeFPlus}))
	p := enclave.NewSimPlatform(sched, rng.Fork(1), network, enclave.SimConfig{
		Addr: 3,
		TSC:  simtime.NewTSC(simtime.NominalTSCHz, 0),
	})
	discrepancies := 0
	node, err := core.NewNode(p, core.Config{
		Config: engine.Config{
			Key:       testKey(),
			Addr:      3,
			Authority: taAddr,
			Events: core.Events{
				Discrepancy: func(float64) { discrepancies++ },
			},
		},
		EnableMemMonitor: true, // full dual monitoring, fully armed
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	sched.RunUntil(simtime.FromSeconds(120))

	if discrepancies != 0 {
		t.Errorf("monitors fired %d times; the F+ attack never touches the TSC", discrepancies)
	}
	ratio := node.FCalib() / simtime.NominalTSCHz
	if math.Abs(ratio-1.1) > 0.005 {
		t.Errorf("F_calib ratio = %v, want ~1.1: the attack must succeed despite dual monitoring", ratio)
	}
}
