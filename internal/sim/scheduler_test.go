package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"triadtime/internal/simtime"
)

func after(d time.Duration) simtime.Instant { return simtime.FromDuration(d) }

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(after(3*time.Second), func() { order = append(order, 3) })
	s.At(after(1*time.Second), func() { order = append(order, 1) })
	s.At(after(2*time.Second), func() { order = append(order, 2) })
	s.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if got := s.Now(); got != after(3*time.Second) {
		t.Errorf("Now() = %v, want t+3s", got)
	}
}

func TestSchedulerStableTieBreaking(t *testing.T) {
	s := NewScheduler()
	var order []int
	at := after(time.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.At(at, func() { order = append(order, i) })
	}
	s.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of schedule order: %v", order)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(after(time.Second), func() {})
	s.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	s.At(after(time.Millisecond), func() {})
}

func TestSchedulerAfterNegativeClamps(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-5, func() { fired = true })
	s.RunUntilIdle()
	if !fired {
		t.Error("After with negative delay should fire immediately")
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(after(time.Second), func() { fired = true })
	s.Cancel(e)
	s.Cancel(e)       // double cancel is a no-op
	s.Cancel(Event{}) // zero handle is inert
	s.RunUntilIdle()
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", s.Pending())
	}
}

func TestSchedulerCancelAmongMany(t *testing.T) {
	s := NewScheduler()
	var got []int
	events := make([]Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		events[i] = s.At(after(time.Duration(i+1)*time.Second), func() { got = append(got, i) })
	}
	s.Cancel(events[1])
	s.Cancel(events[3])
	s.RunUntilIdle()
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSchedulerCancelReschedulesIntoFreeSlot pins the free-list and
// generation mechanics: a cancelled event's slot is recycled by the next
// schedule, and the stale handle to the old occupant must not be able to
// cancel (or report on) the new one.
func TestSchedulerCancelReschedulesIntoFreeSlot(t *testing.T) {
	s := NewScheduler()
	stale := s.At(after(time.Second), func() { t.Error("cancelled event fired") })
	s.Cancel(stale)
	fired := false
	fresh := s.At(after(2*time.Second), func() { fired = true })
	if fresh.id != stale.id {
		t.Fatalf("slot not recycled: fresh id %d, stale id %d", fresh.id, stale.id)
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled slot kept its generation; stale handles would alias")
	}
	s.Cancel(stale) // stale handle aims at the recycled slot: must be a no-op
	if stale.At() != simtime.Epoch {
		t.Errorf("stale At() = %v, want epoch", stale.At())
	}
	if fresh.At() != after(2*time.Second) {
		t.Errorf("fresh At() = %v, want t+2s", fresh.At())
	}
	s.RunUntilIdle()
	if !fired {
		t.Error("rescheduled event did not survive the stale cancel")
	}
}

// TestSchedulerCancelHeadMidRun cancels the queue's head from inside a
// running callback: the head's heap root slot is vacated while RunUntil
// is iterating on it.
func TestSchedulerCancelHeadMidRun(t *testing.T) {
	s := NewScheduler()
	var order []string
	var b Event
	s.At(after(1*time.Second), func() {
		order = append(order, "a")
		s.Cancel(b) // b is now the head of the queue
	})
	b = s.At(after(2*time.Second), func() { order = append(order, "b") })
	s.At(after(3*time.Second), func() { order = append(order, "c") })
	s.RunUntil(after(time.Minute))
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Errorf("order = %v, want [a c]", order)
	}
	if s.Now() != after(time.Minute) {
		t.Errorf("Now() = %v, want t+1m", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.At(after(1*time.Second), func() { fired = append(fired, 1) })
	s.At(after(2*time.Second), func() { fired = append(fired, 2) })
	s.At(after(3*time.Second), func() { fired = append(fired, 3) })
	s.RunUntil(after(2 * time.Second))
	if len(fired) != 2 {
		t.Errorf("fired = %v, want events at 1s and 2s (deadline inclusive)", fired)
	}
	if s.Now() != after(2*time.Second) {
		t.Errorf("Now() = %v, want t+2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	// Clock advances to the deadline even with no events in range.
	s2 := NewScheduler()
	s2.RunUntil(after(time.Minute))
	if s2.Now() != after(time.Minute) {
		t.Errorf("idle RunUntil: Now() = %v, want t+1m", s2.Now())
	}
}

func TestSchedulerEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(after(time.Second), func() {
		order = append(order, "first")
		s.After(simtime.FromDuration(time.Second), func() {
			order = append(order, "second")
		})
	})
	s.RunUntilIdle()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
	if s.Now() != after(2*time.Second) {
		t.Errorf("Now() = %v, want t+2s", s.Now())
	}
}

func TestSchedulerHalt(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(after(time.Duration(i)*time.Second), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.RunUntilIdle()
	if count != 3 {
		t.Errorf("count = %d, want 3 (halted)", count)
	}
	// Run can resume after a halt.
	s.RunUntilIdle()
	if count != 10 {
		t.Errorf("count = %d, want 10 after resume", count)
	}
}

func TestSchedulerDeterministicOrderProperty(t *testing.T) {
	// Property: two schedulers fed identical schedules fire identically.
	f := func(delaysMs []uint16) bool {
		run := func() []int {
			s := NewScheduler()
			var order []int
			for i, d := range delaysMs {
				i := i
				s.At(after(time.Duration(d)*time.Millisecond), func() {
					order = append(order, i)
				})
			}
			s.RunUntilIdle()
			return order
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// oracleQueue is the scheduler's original container/heap event queue,
// kept here as the ordering oracle for the specialized 4-ary queue: both
// order by (at, seq), so any random workload must fire identically.
type oracleEvent struct {
	at    simtime.Instant
	seq   uint64
	index int
	fn    func()
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *oracleQueue) Push(x any) {
	e := x.(*oracleEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type oracleScheduler struct {
	now   simtime.Instant
	queue oracleQueue
	seq   uint64
}

func (s *oracleScheduler) at(at simtime.Instant, fn func()) *oracleEvent {
	e := &oracleEvent{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

func (s *oracleScheduler) cancel(e *oracleEvent) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.queue, e.index)
	e.index = -1
}

func (s *oracleScheduler) run() {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*oracleEvent)
		s.now = e.at
		e.fn()
	}
}

// queueDriver is what the oracle test's script needs of a scheduler, so
// that one script can drive both the real one and the oracle. A timer on
// the oracle is a one-shot event cancelled and scheduled afresh on every
// set: the single-queue behaviour the real timers must reproduce.
type queueDriver struct {
	now      func() simtime.Instant
	at       func(at simtime.Instant, fn func()) (cancel func())
	newTimer func(fn func()) (set func(at simtime.Instant), stop func())
	run      func()
}

func realDriver() queueDriver {
	s := NewScheduler()
	return queueDriver{
		now: s.Now,
		at: func(at simtime.Instant, fn func()) func() {
			e := s.At(at, fn)
			return func() { s.Cancel(e) }
		},
		newTimer: func(fn func()) (func(simtime.Instant), func()) {
			t := s.NewTimer(fn)
			return t.Set, t.Stop
		},
		run: s.RunUntilIdle,
	}
}

func oracleDriver() queueDriver {
	s := &oracleScheduler{}
	return queueDriver{
		now: func() simtime.Instant { return s.now },
		at: func(at simtime.Instant, fn func()) func() {
			e := s.at(at, fn)
			return func() { s.cancel(e) }
		},
		newTimer: func(fn func()) (func(simtime.Instant), func()) {
			var pending *oracleEvent
			stop := func() { s.cancel(pending) }
			return func(at simtime.Instant) {
				stop()
				pending = s.at(at, fn)
			}, stop
		},
		run: s.run,
	}
}

// oracleScript runs one randomized workload on d and returns the firing
// order. One-shot events: bursts of schedules on a dense grid of
// instants (plenty of ties), cancellations of random earlier ones, and
// follow-ups scheduled from inside callbacks. Timers: set and stopped
// from the top level, from one-shot callbacks, from their own callback
// (the re-arm idiom, including for the very instant they are firing at)
// and from each other's. Every third operation plants a timer and a
// one-shot event on the same instant, in alternating order, so ties
// between the two kinds occur both ways round.
func oracleScript(seed int64, d queueDriver) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	ms := func(n int) simtime.Instant { return after(time.Duration(n) * time.Millisecond) }

	const nTimers = 8
	sets := make([]func(simtime.Instant), nTimers)
	stops := make([]func(), nTimers)
	budget := 400 // timer firings that may still re-arm: the script must quiesce
	// poke does something random to a random timer, as any callback might.
	poke := func() {
		k := rng.Intn(nTimers)
		if rng.Intn(5) == 0 {
			stops[k]()
		} else {
			sets[k](d.now() + ms(rng.Intn(20)))
		}
	}
	for k := 0; k < nTimers; k++ {
		k := k
		sets[k], stops[k] = d.newTimer(func() {
			order = append(order, 1000+k)
			if budget == 0 {
				return
			}
			budget--
			switch rng.Intn(8) {
			case 0, 1, 2, 5, 6:
				sets[k](d.now() + ms(rng.Intn(20))) // re-arm, possibly for this same instant
			case 3:
				poke()
			case 4:
				sets[k](d.now() + ms(1+rng.Intn(20)))
				poke()
			}
		})
	}

	const nOps = 200
	cancels := make([]func(), nOps)
	for i := 0; i < nOps; i++ {
		i := i
		at := ms(rng.Intn(50))
		chainMs := 0
		if rng.Intn(5) == 0 {
			chainMs = 1 + rng.Intn(20)
		}
		pokes := rng.Intn(6) == 0
		fn := func() {
			order = append(order, i)
			if chainMs != 0 {
				d.at(d.now()+ms(chainMs), func() { order = append(order, -i) })
			}
			if pokes {
				poke()
			}
		}
		switch i % 6 {
		case 0: // tie: timer scheduled first
			sets[rng.Intn(nTimers)](at)
			cancels[i] = d.at(at, fn)
		case 3: // tie: one-shot scheduled first
			cancels[i] = d.at(at, fn)
			sets[rng.Intn(nTimers)](at)
		default:
			cancels[i] = d.at(at, fn)
		}
		if i > 0 && rng.Intn(4) == 0 {
			cancels[rng.Intn(i)]()
		}
		if rng.Intn(8) == 0 {
			poke()
		}
	}
	d.run()
	return order
}

// TestSchedulerMatchesHeapOracle drives the scheduler and the original
// container/heap implementation through identical randomized workloads
// of one-shot events and timers and requires bit-identical firing order:
// the two specialized heaps, merged by (at, seq), must behave as the one
// queue the oracle is. This is the determinism bar the golden-trace
// battery relies on.
func TestSchedulerMatchesHeapOracle(t *testing.T) {
	timerFirings := 0
	for trial := 0; trial < 50; trial++ {
		seed := int64(trial)*2654435761 + 1
		got := oracleScript(seed, realDriver())
		want := oracleScript(seed, oracleDriver())
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, oracle fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverges from heap oracle at %d: got %d, want %d",
					trial, i, got[i], want[i])
			}
			if got[i] >= 1000 {
				timerFirings++
			}
		}
	}
	if timerFirings < 1000 {
		t.Errorf("only %d timer firings in all; the script is not exercising timers", timerFirings)
	}
}

func TestEventAt(t *testing.T) {
	s := NewScheduler()
	e := s.At(after(5*time.Second), func() {})
	if e.At() != after(5*time.Second) {
		t.Errorf("At() = %v", e.At())
	}
	s.RunUntilIdle()
	if e.At() != simtime.Epoch {
		t.Errorf("fired handle At() = %v, want epoch", e.At())
	}
	if (Event{}).At() != simtime.Epoch {
		t.Error("zero Event At() should report the epoch")
	}
}

func TestTimerSetStopPending(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	if s.Pending() != 0 {
		t.Fatalf("idle timer counted as pending: %d", s.Pending())
	}
	tm.Stop() // stopping an idle timer is a no-op
	tm.Set(after(2 * time.Second))
	tm.Set(after(time.Second)) // replaces the earlier setting
	s.At(after(3*time.Second), func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (one armed timer, one event)", s.Pending())
	}
	if !s.Step() || fired != 1 || s.Now() != after(time.Second) {
		t.Fatalf("after one step: fired %d at %v, want 1 at t+1s", fired, s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d after the timer fired, want 1", s.Pending())
	}
	tm.Set(after(2 * time.Second))
	tm.Stop()
	tm.Stop()
	s.RunUntilIdle()
	if fired != 1 {
		t.Errorf("stopped timer fired (%d firings)", fired)
	}
	defer func() {
		if recover() == nil {
			t.Error("setting a timer in the past should panic")
		}
	}()
	tm.Set(after(time.Second))
}

// TestTimerRearmFromOwnCallback pins the re-arm idiom and what a
// callback may observe while it runs: its own timer is idle (not
// pending, stoppable without effect), and stepping the scheduler from
// inside it fires the next entry, not the same timer again.
func TestTimerRearmFromOwnCallback(t *testing.T) {
	s := NewScheduler()
	var order []string
	var tick Timer
	n := 0
	tick = s.NewTimer(func() {
		n++
		order = append(order, "tick")
		if n == 1 && s.Pending() != 1 { // the other timer only
			t.Errorf("Pending inside the callback = %d, want 1", s.Pending())
		}
		tick.Stop() // idle already: must not disturb the re-arm below
		if n == 2 {
			s.Step() // fires "other", due later
		}
		if n < 3 {
			tick.Set(s.Now() + after(time.Second))
		}
	})
	other := s.NewTimer(func() { order = append(order, "other") })
	tick.Set(after(time.Second))
	other.Set(after(10 * time.Second))
	s.RunUntilIdle()
	want := []string{"tick", "tick", "other", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d at the end, want 0", s.Pending())
	}
}

// TestRunUntilWithOnlyTimers is TestSchedulerRunUntil and
// TestSchedulerHalt with no one-shot event anywhere: the deadline and
// Halt must hold when the timer heap is all there is.
func TestRunUntilWithOnlyTimers(t *testing.T) {
	s := NewScheduler()
	fired := 0
	var tick Timer
	tick = s.NewTimer(func() {
		fired++
		if fired == 5 {
			s.Halt()
		}
		tick.Set(s.Now() + after(time.Second))
	})
	tick.Set(after(time.Second))
	s.RunUntil(after(2 * time.Second))
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (deadline inclusive)", fired)
	}
	if s.Now() != after(2*time.Second) || s.Pending() != 1 {
		t.Errorf("Now() = %v, Pending = %d; want t+2s, 1", s.Now(), s.Pending())
	}
	s.RunUntil(after(2*time.Second + time.Millisecond)) // nothing due: clock still advances
	if fired != 2 || s.Now() != after(2*time.Second+time.Millisecond) {
		t.Errorf("idle RunUntil: fired = %d, Now() = %v", fired, s.Now())
	}
	s.RunUntil(after(time.Minute))
	if fired != 5 {
		t.Errorf("fired = %d, want 5 (halted)", fired)
	}
	if s.Now() != after(5*time.Second) {
		t.Errorf("Now() = %v after Halt, want t+5s (not the deadline)", s.Now())
	}
	s.RunUntil(after(7 * time.Second)) // a run resumes after a halt
	if fired != 7 {
		t.Errorf("fired = %d, want 7 after resume", fired)
	}
}

// TestSchedulerStepZeroAllocSteadyState is the allocation regression
// guard CI runs: once the slot and heap arrays have reached their
// high-water mark, scheduling and firing events must not allocate.
func TestSchedulerStepZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm up past the high-water mark: a standing queue plus churn.
	for i := 0; i < 256; i++ {
		s.After(simtime.FromDuration(time.Duration(i+1)*time.Microsecond), fn)
	}
	for i := 0; i < 256; i++ {
		s.After(simtime.FromDuration(time.Millisecond), fn)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(simtime.FromDuration(time.Millisecond), fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state After+Step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSchedulerCancelZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(simtime.FromDuration(time.Duration(i+1)*time.Microsecond), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := s.After(simtime.FromDuration(time.Millisecond), fn)
		s.Cancel(e)
	})
	if allocs != 0 {
		t.Errorf("steady-state At+Cancel allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTimerZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	var tick Timer
	tick = s.NewTimer(func() { tick.Set(s.Now() + after(time.Millisecond)) })
	tick.Set(after(time.Millisecond))
	other := s.NewTimer(func() {})
	for i := 0; i < 16; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		other.Set(s.Now() + after(time.Second))
		s.Step()
		other.Stop()
	})
	if allocs != 0 {
		t.Errorf("steady-state timer Set+Step+Stop allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSchedulerThroughput is the headline scheduler metric:
// steady-state events scheduled and fired against a standing queue,
// reported as events/sec.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(simtime.FromDuration(time.Duration(i+1)*time.Microsecond), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(simtime.FromDuration(time.Millisecond), fn)
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkSchedulerEventThroughput(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(simtime.FromDuration(time.Microsecond), func() {})
		s.Step()
	}
}

func BenchmarkSchedulerDeepQueue(b *testing.B) {
	// Sustained 1k-event queue: push one, pop one.
	s := NewScheduler()
	for i := 0; i < 1000; i++ {
		s.After(simtime.FromDuration(time.Duration(i)*time.Microsecond), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(simtime.FromDuration(time.Millisecond), func() {})
		s.Step()
	}
}

func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 1000; i++ {
		s.After(simtime.FromDuration(time.Duration(i)*time.Microsecond), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.After(simtime.FromDuration(time.Millisecond), fn)
		s.Cancel(e)
	}
}

// BenchmarkTimerRearm fires and re-arms one timer among a thousand armed
// ones: the timer heap's counterpart of BenchmarkSchedulerDeepQueue.
func BenchmarkTimerRearm(b *testing.B) {
	s := NewScheduler()
	for i := 0; i < 1000; i++ {
		var tm Timer
		tm = s.NewTimer(func() { tm.Set(s.Now() + after(time.Millisecond)) })
		tm.Set(after(time.Duration(i) * time.Microsecond))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
