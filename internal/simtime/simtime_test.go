package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestInstantArithmetic(t *testing.T) {
	i := Epoch.Add(3 * time.Second)
	if got := i.Seconds(); got != 3 {
		t.Errorf("Seconds() = %v, want 3", got)
	}
	j := i.Add(500 * time.Millisecond)
	if got := j.Sub(i); got != 500*time.Millisecond {
		t.Errorf("Sub = %v, want 500ms", got)
	}
	if !i.Before(j) || !j.After(i) {
		t.Error("ordering broken")
	}
	if got := FromSeconds(1.5); got != Epoch.Add(1500*time.Millisecond) {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := FromDuration(time.Second); got != Epoch.Add(time.Second) {
		t.Errorf("FromDuration = %v", got)
	}
	if s := Epoch.Add(time.Minute).String(); s != "t+1m0s" {
		t.Errorf("String() = %q", s)
	}
}

func TestTSCNominalRate(t *testing.T) {
	c := NewTSC(NominalTSCHz, 0)
	at1s := c.ReadAt(FromSeconds(1))
	if math.Abs(float64(at1s)-NominalTSCHz) > 1 {
		t.Errorf("ReadAt(1s) = %d, want ~%v", at1s, NominalTSCHz)
	}
	if c.GuestHz() != NominalTSCHz {
		t.Errorf("GuestHz = %v", c.GuestHz())
	}
	if c.HostHz() != NominalTSCHz {
		t.Errorf("HostHz = %v", c.HostHz())
	}
}

func TestTSCStartOffset(t *testing.T) {
	c := NewTSC(1e9, 1000)
	if got := c.ReadAt(Epoch); got != 1000 {
		t.Errorf("ReadAt(epoch) = %d, want 1000", got)
	}
	if got := c.ReadAt(FromSeconds(1)); got != 1000+1e9 {
		t.Errorf("ReadAt(1s) = %d", got)
	}
}

func TestTSCScaleContinuity(t *testing.T) {
	c := NewTSC(1e9, 0)
	tSwitch := FromSeconds(2)
	before := c.ReadAt(tSwitch)
	c.SetScale(1.5, tSwitch)
	after := c.ReadAt(tSwitch)
	if before != after {
		t.Errorf("scale change not continuous: before %d after %d", before, after)
	}
	// One second later the guest sees 1.5e9 extra ticks.
	got := c.ReadAt(tSwitch.Add(time.Second))
	want := before + 15e8
	if math.Abs(float64(got)-float64(want)) > 1 {
		t.Errorf("post-scale read = %d, want ~%d", got, want)
	}
	if c.Scale() != 1.5 || c.GuestHz() != 1.5e9 {
		t.Errorf("Scale/GuestHz = %v/%v", c.Scale(), c.GuestHz())
	}
}

func TestTSCJumpForwardAndBack(t *testing.T) {
	c := NewTSC(1e9, 0)
	at := FromSeconds(1)
	c.Jump(5000, at)
	if got := c.ReadAt(at); got != 1e9+5000 {
		t.Errorf("after forward jump ReadAt = %d", got)
	}
	c.Jump(-2000, at)
	if got := c.ReadAt(at); got != 1e9+3000 {
		t.Errorf("after backward jump ReadAt = %d", got)
	}
}

func TestTSCJumpClampsAtZero(t *testing.T) {
	c := NewTSC(1e9, 0)
	c.Jump(-1e18, FromSeconds(1))
	if got := c.ReadAt(FromSeconds(1)); got != 0 {
		t.Errorf("backward jump should clamp at 0, got %d", got)
	}
}

func TestTSCReadBeforeManipulationIsClamped(t *testing.T) {
	c := NewTSC(1e9, 0)
	c.SetScale(2, FromSeconds(5))
	atSwitch := c.ReadAt(FromSeconds(5))
	if got := c.ReadAt(FromSeconds(1)); got != atSwitch {
		t.Errorf("read before last manipulation = %d, want clamp to %d", got, atSwitch)
	}
}

func TestTSCTimeOfTicksAfter(t *testing.T) {
	c := NewTSC(2e9, 0)
	from := FromSeconds(1)
	at := c.TimeOfTicksAfter(from, 1e9) // half a second at 2GHz
	want := from.Add(500 * time.Millisecond)
	if d := at.Sub(want); d < -time.Nanosecond || d > time.Nanosecond {
		t.Errorf("TimeOfTicksAfter = %v, want %v", at, want)
	}
	// After scaling 2x the same tick budget takes half the reference time.
	c.SetScale(2, from)
	at = c.TimeOfTicksAfter(from, 1e9)
	want = from.Add(250 * time.Millisecond)
	if d := at.Sub(want); d < -time.Nanosecond || d > time.Nanosecond {
		t.Errorf("scaled TimeOfTicksAfter = %v, want %v", at, want)
	}
}

func TestTSCMonotonicProperty(t *testing.T) {
	// Property: for any manipulation-free pair of reads, later reads see
	// larger-or-equal values; SetScale/Jump(+) preserve monotonicity.
	f := func(sec1, sec2 uint16, scaleMilli uint16, jump uint32) bool {
		c := NewTSC(1e9, 0)
		t1 := FromSeconds(float64(sec1) / 100)
		t2 := FromSeconds(float64(sec2) / 100)
		if t2 < t1 {
			t1, t2 = t2, t1
		}
		v1 := c.ReadAt(t1)
		scale := 0.5 + float64(scaleMilli)/1000.0
		c.SetScale(scale, t1)
		c.Jump(int64(jump), t1)
		v2 := c.ReadAt(t2)
		return v2 >= v1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTSCInvalidArgumentsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTSC with zero rate should panic")
		}
	}()
	NewTSC(0, 0)
}

func TestTSCSetScaleZeroPanics(t *testing.T) {
	c := NewTSC(1e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("SetScale(0) should panic")
		}
	}()
	c.SetScale(0, Epoch)
}

func TestCoreINCPerTicks(t *testing.T) {
	core := PaperCore()
	got := core.INCPerTicks(15e6, NominalTSCHz)
	// The PaperCyclesPerINC constant is defined to land the ideal count on
	// the paper's measured mean of 632182 INC per 15e6 TSC ticks.
	if math.Abs(got-PaperINCPer15MTicks) > 1e-3 {
		t.Errorf("INCPerTicks = %v, want %v", got, PaperINCPer15MTicks)
	}
}

func TestCoreINCPerTicksScalesWithFrequency(t *testing.T) {
	slow := Core{FreqHz: PaperCoreHz / 2, CyclesPerINC: PaperCyclesPerINC}
	fast := PaperCore()
	if got, want := slow.INCPerTicks(15e6, NominalTSCHz), fast.INCPerTicks(15e6, NominalTSCHz)/2; math.Abs(got-want) > 1e-6 {
		t.Errorf("halving core frequency: got %v, want %v", got, want)
	}
}

func TestCoreINCPerTicksDefaultsCycleCost(t *testing.T) {
	core := Core{FreqHz: 1e9} // CyclesPerINC unset -> treated as 1
	if got := core.INCPerTicks(1e9, 1e9); got != 1e9 {
		t.Errorf("INCPerTicks with default cycle cost = %v, want 1e9", got)
	}
}

func TestTSCTimeOfReaching(t *testing.T) {
	c := NewTSC(1e9, 0)
	from := FromSeconds(1)
	target := c.ReadAt(from) + 5e8 // half a second away
	at := c.TimeOfReaching(target, from)
	if d := at.Sub(from.Add(500 * time.Millisecond)); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("TimeOfReaching = %v", at)
	}
	// Already-passed targets resolve to now.
	if got := c.TimeOfReaching(0, from); got != from {
		t.Errorf("passed target: %v, want %v", got, from)
	}
	// Scaling changes the pace.
	c.SetScale(2, from)
	target = c.ReadAt(from) + 1e9
	at = c.TimeOfReaching(target, from)
	if d := at.Sub(from.Add(500 * time.Millisecond)); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("scaled TimeOfReaching = %v", at)
	}
}

func TestTSCObservers(t *testing.T) {
	c := NewTSC(1e9, 0)
	var notified []Instant
	c.Observe(func(at Instant) { notified = append(notified, at) })
	c.Observe(func(at Instant) { notified = append(notified, at) })
	c.SetScale(1.5, FromSeconds(1))
	c.Jump(100, FromSeconds(2))
	if len(notified) != 4 {
		t.Fatalf("notifications = %d, want 4 (2 observers x 2 manipulations)", len(notified))
	}
	if notified[0] != FromSeconds(1) || notified[2] != FromSeconds(2) {
		t.Errorf("notification instants = %v", notified)
	}
}

// TestTSCGenerationAndPriorView pins what the monitoring windows build
// on: every manipulation is a new generation, and ReadPriorAt keeps
// answering, bit for bit, what ReadAt answered before the latest one.
func TestTSCGenerationAndPriorView(t *testing.T) {
	c := NewTSC(NominalTSCHz, 7e9)
	probes := []Instant{Epoch, FromSeconds(0.0049), FromSeconds(1.25), FromSeconds(3)}
	check := func(what string, want []uint64) {
		t.Helper()
		for i, at := range probes {
			if got := c.ReadPriorAt(at); got != want[i] {
				t.Errorf("%s: ReadPriorAt(%v) = %d, ReadAt said %d before", what, at, got, want[i])
			}
		}
	}
	read := func() []uint64 {
		out := make([]uint64, len(probes))
		for i, at := range probes {
			out[i] = c.ReadAt(at)
		}
		return out
	}
	if c.Generation() != 0 {
		t.Fatalf("fresh TSC at generation %d", c.Generation())
	}
	check("fresh", read()) // no manipulation yet: prior is current

	before := read()
	c.SetScale(1.1, FromSeconds(1))
	if c.Generation() != 1 {
		t.Errorf("generation %d after SetScale, want 1", c.Generation())
	}
	check("after SetScale", before)

	before = read()
	c.Jump(-5e6, FromSeconds(2))
	if c.Generation() != 2 {
		t.Errorf("generation %d after Jump, want 2", c.Generation())
	}
	check("after Jump", before)
}
