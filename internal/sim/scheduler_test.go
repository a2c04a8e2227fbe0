package sim

import (
	"container/heap"
	"fmt"
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
// kept here as the ordering oracle for the calendar and its heaps: both
// order by (at, seq), so any workload must fire identically.
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

func (s *oracleScheduler) run() { s.runUntil(maxInstant) }

func (s *oracleScheduler) runUntil(deadline simtime.Instant) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		e := heap.Pop(&s.queue).(*oracleEvent)
		s.now = e.at
		e.fn()
	}
	if deadline != maxInstant && s.now < deadline {
		s.now = deadline
	}
}

func (s *oracleScheduler) peek() (simtime.Instant, bool) {
	if len(s.queue) == 0 {
		return simtime.Epoch, false
	}
	return s.queue[0].at, true
}

// queueDriver is what the oracle test's script needs of a scheduler, so
// that one script can drive both the real one and the oracle. A timer on
// the oracle is a one-shot event cancelled and scheduled afresh on every
// set: the single-queue behaviour the real timers must reproduce.
type queueDriver struct {
	now      func() simtime.Instant
	at       func(at simtime.Instant, fn func()) (cancel func())
	newTimer func(fn func()) (set func(at simtime.Instant), stop func())
	peek     func() (simtime.Instant, bool)
	runUntil func(deadline simtime.Instant)
	run      func()
}

// realDriver drives a real scheduler and checks its calendar's
// invariants around every operation and before every callback,
// failing t at the first violation.
func realDriver(t *testing.T) queueDriver {
	s := NewScheduler()
	check := func() {
		t.Helper()
		if err := s.checkCalendar(); err != nil {
			t.Fatal(err)
		}
	}
	return queueDriver{
		now: s.Now,
		at: func(at simtime.Instant, fn func()) func() {
			e := s.At(at, func() { check(); fn() })
			check()
			return func() { s.Cancel(e); check() }
		},
		newTimer: func(fn func()) (func(simtime.Instant), func()) {
			t := s.NewTimer(func() { check(); fn() })
			return t.Set, t.Stop
		},
		peek: func() (simtime.Instant, bool) {
			at, ok := s.NextAt()
			check()
			return at, ok
		},
		runUntil: func(deadline simtime.Instant) { s.RunUntil(deadline); check() },
		run:      func() { s.RunUntilIdle(); check() },
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
		peek:     s.peek,
		runUntil: s.runUntil,
		run:      s.run,
	}
}

// checkCalendar verifies the one-shot queue's invariants: every bucket
// ring is well linked, sorted by (at, seq) and inside the window at its
// ring position, heads, bitmap and counts agree, every far event is due
// at or after the window's end, the cursor is not past the current
// time, and the least-event memo, when set, names the least bucket and
// its head, or the far root while no bucket holds anything.
func (s *Scheduler) checkCalendar() error {
	near, least := 0, int64(-1)
	for b := 0; b < bucketCount; b++ {
		h := s.heads[b]
		if bit := s.nonEmpty[b>>6]>>(b&63)&1 == 1; (h != 0) != bit {
			return fmt.Errorf("bucket %d: head %d but bitmap bit %v", b, h, bit)
		}
		if h == 0 {
			continue
		}
		for idx, i := h-1, 0; ; i++ {
			sl := &s.slots[idx]
			abs := bucketOf(sl.at)
			switch {
			case sl.pos != bucketPos(b):
				return fmt.Errorf("bucket %d holds slot %d with pos %d", b, idx, sl.pos)
			case int(abs&bucketMask) != b || abs < s.cursor || abs >= s.cursor+bucketCount:
				return fmt.Errorf("bucket %d holds an event at %v, outside it (cursor %d)", b, sl.at, s.cursor)
			case uint32(s.slots[sl.next].prev) != idx:
				return fmt.Errorf("bucket %d: ring broken at slot %d", b, idx)
			case i > 0 && !s.less(uint32(sl.prev), idx):
				return fmt.Errorf("bucket %d: ring out of (at, seq) order at slot %d", b, idx)
			}
			if least < 0 || abs < least {
				least = abs
			}
			near++
			if idx = uint32(sl.next); idx == h-1 {
				break
			}
		}
	}
	if near != s.near {
		return fmt.Errorf("buckets hold %d events, near counts %d", near, s.near)
	}
	switch {
	case s.first < 0:
	case s.first == farHead && (near > 0 || len(s.far) == 0 || s.head != s.far[0]):
		return fmt.Errorf("far memo names slot %d with %d near and %d far events", s.head, near, len(s.far))
	case s.first != farHead && (near == 0 || s.first != least || s.head != s.heads[least&bucketMask]-1):
		return fmt.Errorf("memo bucket %d slot %d, least bucket %d", s.first, s.head, least)
	}
	for i, idx := range s.far {
		if sl := &s.slots[idx]; sl.pos != int32(i) || bucketOf(sl.at) < s.cursor+bucketCount {
			return fmt.Errorf("far heap entry %d (pos %d) at %v inside the window (cursor %d)", i, sl.pos, sl.at, s.cursor)
		}
	}
	if s.cursor > bucketOf(s.now) {
		return fmt.Errorf("cursor %d past the current time's bucket %d", s.cursor, bucketOf(s.now))
	}
	return nil
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

// window is the calendar's span: an event due this far past the start
// of the cursor bucket or later waits in the far heap.
const window = simtime.Instant(bucketCount << bucketShift)

func us(n int) simtime.Instant { return after(time.Duration(n) * time.Microsecond) }
func ms(n int) simtime.Instant { return after(time.Duration(n) * time.Millisecond) }

// calendarScripts are fixed workloads aimed at the calendar's seams,
// each returning its firing order. Negative and large labels keep the
// callbacks apart.
var calendarScripts = []struct {
	name string
	run  func(d queueDriver) []int
}{
	// Far events and their migration: a LAN-scale heartbeat keeps
	// bucketed events firing, so the window slides and reaches the far
	// events one by one — the last instant inside the first window, the
	// first outside it, ties among far events, and events seconds out.
	{"far events migrate as the window slides", func(d queueDriver) []int {
		var order []int
		n := 0
		var beat func()
		beat = func() {
			order = append(order, -1)
			if n++; n < 120 {
				d.at(d.now()+ms(37)+us(n), beat)
			}
		}
		d.at(us(100), beat)
		for i, at := range []simtime.Instant{window - 1, window, window + 1, window, ms(300), after(time.Second),
			2 * window, 2*window - 1, after(2 * time.Second), after(2 * time.Second), after(4 * time.Second)} {
			i := i
			d.at(at, func() { order = append(order, i) })
		}
		d.run()
		return order
	}},
	// A peek, or a RunUntil whose deadline falls short of the next
	// event, must not let later schedules before that event misfire.
	{"At behind a peeked cursor", func(d queueDriver) []int {
		var order []int
		label := func(i int) func() { return func() { order = append(order, i) } }
		tick, _ := d.newTimer(label(100))
		d.at(ms(200), label(1))
		d.at(ms(200)+window, label(2))
		d.peek()
		tick(ms(50))
		d.runUntil(ms(100)) // the timer fires; 200 ms is past the deadline
		d.peek()
		d.at(ms(100)+us(10), label(3))
		d.at(ms(100), label(4)) // now, exactly
		d.at(ms(200), label(5)) // ties with 1, scheduled later
		d.at(ms(150), label(6))
		tick(ms(150)) // ties with 6 across the two queues
		d.peek()
		d.runUntil(ms(150))
		d.at(ms(150), label(7)) // at the deadline just reached
		d.run()
		return order
	}},
	// Cancellations inside one bucket — its head, its tail, a middle
	// entry, one of equal instants — and of a whole bucket, which is then
	// refilled.
	{"Cancel inside a bucket", func(d queueDriver) []int {
		var order []int
		base := ms(1)
		var cancels []func()
		for i, off := range []int{5, 1, 3, 3, 0, 7, 3, 2, 64, 65} {
			i := i
			cancels = append(cancels, d.at(base+us(off), func() { order = append(order, i) }))
		}
		two := []func(){
			d.at(ms(2), func() { order = append(order, 20) }),
			d.at(ms(2), func() { order = append(order, 21) }),
		}
		for _, i := range []int{4, 5, 2, 8} { // head, tail, an equal-instant one, another bucket's
			cancels[i]()
		}
		two[0]()
		two[1]()
		d.peek()
		d.at(ms(2)+us(1), func() { order = append(order, 22) })
		d.at(base+us(1), func() { order = append(order, 23) }) // ties with 1
		cancels[1]()
		d.run()
		return order
	}},
	// With the calendar empty the window restarts where time is: the far
	// heap's root fires straight from the heap, schedules made then — at
	// the same instant as far events still waiting, and across long empty
	// stretches — must still come out in order.
	{"window jumps when the calendar empties", func(d queueDriver) []int {
		var order []int
		label := func(i int) func() { return func() { order = append(order, i) } }
		d.at(us(10), label(1))
		ten := after(10 * time.Second)
		d.at(ten, func() {
			order = append(order, 2)
			d.at(d.now(), label(3)) // ties with 4 and 5, still in the far heap
			d.at(d.now()+us(5), label(6))
			d.at(d.now()+after(time.Hour), label(7))
			d.at(d.now()+window, label(8))
		})
		d.at(ten, label(4))
		d.at(ten, label(5))
		d.runUntil(after(5 * time.Second)) // drains the calendar
		d.at(d.now()+ms(1), label(9))
		d.at(ten, label(10))
		d.runUntil(after(3 * time.Hour))
		d.at(d.now(), label(11))
		d.run()
		return order
	}},
	// Equal instants reached by different routes: scheduled while the
	// instant was past the window (far heap, then migrated), after the
	// window covered it (straight into the bucket), and a timer set to it
	// from both sides.
	{"equal-at ties across the near/far boundary", func(d queueDriver) []int {
		var order []int
		label := func(i int) func() { return func() { order = append(order, i) } }
		tie := window + us(1)
		tick, _ := d.newTimer(label(100))
		d.at(tie, label(1))
		tick(tie)
		d.at(tie, label(2))
		n := 0
		var beat func()
		beat = func() {
			n++
			switch n {
			case 3:
				d.at(tie, label(3))
				tick(tie)
				d.at(tie, label(4))
			case 6:
				d.at(tie, label(5))
			}
			if n < 12 {
				d.at(d.now()+ms(40), beat)
			}
		}
		d.at(ms(1), beat)
		d.run()
		return order
	}},
}

// horizonScript is oracleScript's mixed-horizon sibling, shaped like the
// thousand-node topology: LAN-scale, WAN-scale and far-off events (and
// instants on the window's edge), ties with earlier instants, chained
// follow-ups, cancellations, timers, and RunUntil/peek pauses that leave
// the clock between firings.
func horizonScript(seed int64, d queueDriver) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	var instants []simtime.Instant
	delay := func() simtime.Instant {
		switch c := rng.Intn(20); {
		case c < 8:
			return us(50 + rng.Intn(400)) // LAN
		case c < 15:
			return ms(20) + us(rng.Intn(130_000)) // WAN
		case c < 17:
			return window - us(200) + us(rng.Intn(400)) // the window's edge
		default:
			return ms(300) + ms(rng.Intn(20_000)) // far
		}
	}
	when := func() simtime.Instant {
		if len(instants) > 0 && rng.Intn(6) == 0 {
			if at := instants[rng.Intn(len(instants))]; at >= d.now() {
				return at // a tie with an earlier schedule
			}
		}
		at := d.now() + delay()
		instants = append(instants, at)
		return at
	}
	const nTimers = 4
	sets := make([]func(simtime.Instant), nTimers)
	budget := 300
	for k := range sets {
		k := k
		sets[k], _ = d.newTimer(func() {
			order = append(order, 10000+k)
			if budget > 0 && rng.Intn(3) > 0 {
				budget--
				sets[k](when())
			}
		})
	}
	var cancels []func()
	var schedule func()
	schedule = func() {
		label := len(cancels) + 1
		cancels = append(cancels, d.at(when(), func() {
			order = append(order, label)
			if budget > 0 && rng.Intn(3) == 0 {
				budget--
				schedule()
			}
		}))
	}
	for i := 0; i < 400; i++ {
		schedule()
		switch r := rng.Intn(10); {
		case r == 0:
			cancels[rng.Intn(len(cancels))]()
		case r == 1:
			sets[rng.Intn(nTimers)](when())
		case r == 2:
			d.peek()
		case r < 5:
			d.runUntil(d.now() + delay())
		}
	}
	d.run()
	return order
}

// TestSchedulerMatchesHeapOracle drives the scheduler and the original
// container/heap implementation through identical workloads of one-shot
// events and timers and requires bit-identical firing order: the
// calendar, its far heap and the timer heap, merged by (at, seq), must
// behave as the one queue the oracle is, and the real side's calendar
// invariants must hold throughout. This is the determinism bar the
// golden-trace battery relies on.
func TestSchedulerMatchesHeapOracle(t *testing.T) {
	same := func(t *testing.T, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("fired %d events, oracle fired %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("firing order diverges from heap oracle at %d: got %d, want %d", i, got[i], want[i])
			}
		}
	}
	timerFirings := 0
	for trial := 0; trial < 50; trial++ {
		seed := int64(trial)*2654435761 + 1
		got := oracleScript(seed, realDriver(t))
		same(t, got, oracleScript(seed, oracleDriver()))
		for _, label := range got {
			if label >= 1000 {
				timerFirings++
			}
		}
	}
	if timerFirings < 1000 {
		t.Errorf("only %d timer firings in all; the script is not exercising timers", timerFirings)
	}
	for _, script := range calendarScripts {
		t.Run(script.name, func(t *testing.T) { same(t, script.run(realDriver(t)), script.run(oracleDriver())) })
	}
	t.Run("mixed horizons", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			seed := int64(trial)*40503 + 7
			same(t, horizonScript(seed, realDriver(t)), horizonScript(seed, oracleDriver()))
		}
	})
}

// TestCalendarSeams checks that the oracle scripts reach the calendar's
// seams at all: an event past the window waits in the far heap and
// migrates into its bucket as firings slide the window; a peek leaves
// the cursor where it was; and an empty calendar restarts its window at
// the current time.
func TestCalendarSeams(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	far := s.At(window, fn)
	edge := s.At(window-1, fn)
	if pos := s.slots[far.id-1].pos; pos < 0 {
		t.Fatalf("event at the window's end not in the far heap (pos %d)", pos)
	}
	if pos := s.slots[edge.id-1].pos; pos >= 0 {
		t.Fatalf("event just inside the window in the far heap (pos %d)", pos)
	}
	s.At(ms(50), fn)
	s.NextAt()
	if s.cursor != 0 {
		t.Errorf("a peek moved the cursor to %d", s.cursor)
	}
	s.Step()
	if pos := s.slots[far.id-1].pos; pos >= 0 {
		t.Errorf("far event still in the far heap after the window slid past it (pos %d)", pos)
	}
	s.RunUntilIdle()
	s.RunUntil(after(time.Hour))
	s.At(after(time.Hour)+us(3), fn)
	if want := bucketOf(after(time.Hour)); s.cursor != want {
		t.Errorf("empty calendar restarted at bucket %d, want %d (now's)", s.cursor, want)
	}
	if err := s.checkCalendar(); err != nil {
		t.Error(err)
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

// TestNextAt: the accessor reports the least pending instant across
// events and timers, ignores cancelled and stopped entries, and treats
// a timer whose own callback is running as idle.
func TestNextAt(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.NextAt(); ok {
		t.Fatal("empty scheduler reports a pending instant")
	}
	e := s.At(after(3*time.Second), func() {})
	s.At(after(5*time.Second), func() {})
	var tm Timer
	tm = s.NewTimer(func() {
		if at, ok := s.NextAt(); !ok || at != after(3*time.Second) {
			t.Errorf("inside the timer callback NextAt = %v, %v; want t+3s", at, ok)
		}
	})
	tm.Set(after(time.Second))
	for _, want := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second} {
		if at, ok := s.NextAt(); !ok || at != after(want) {
			t.Fatalf("NextAt = %v, %v; want t+%v", at, ok, want)
		}
		switch want {
		case time.Second:
			s.Step() // fires the timer, which is then idle
		case 3 * time.Second:
			s.Cancel(e)
		}
	}
	s.RunUntilIdle()
	if _, ok := s.NextAt(); ok {
		t.Error("drained scheduler reports a pending instant")
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

// TestTimerSetFirst: a timer armed with SetFirst fires at its instant
// before every entry At and Set schedule there, those scheduled before
// it was armed too, and among such timers in the order they were made.
// Armed at the current instant from another timer's callback, it fires
// next, and the timer whose callback armed it stays idle.
func TestTimerSetFirst(t *testing.T) {
	s := NewScheduler()
	var order []string
	log := func(name string) func() { return func() { order = append(order, name) } }
	at := after(10 * time.Second)
	s.At(at, log("event")) // scheduled before every timer below
	plain := s.NewTimer(log("plain"))
	plain.Set(at)
	made1, made2 := s.NewTimer(log("made1")), s.NewTimer(log("made2"))
	made2.SetFirst(at)
	made1.SetFirst(at)
	s.At(at, log("later event"))
	s.RunUntil(at)
	if want := "[made1 made2 event plain later event]"; fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}

	order = nil
	at2 := after(20 * time.Second)
	var arming Timer
	arming = s.NewTimer(func() {
		order = append(order, "arming")
		made2.SetFirst(s.Now())
		if s.Pending() != 2 { // the event and made2
			t.Errorf("Pending inside the callback = %d, want 2", s.Pending())
		}
	})
	arming.Set(at2)
	s.At(at2, log("event"))
	s.RunUntilIdle()
	if want := "[arming made2 event]"; fmt.Sprint(order) != want {
		t.Errorf("order = %v, want %v", order, want)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d at the end, want 0", s.Pending())
	}
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
	b.Run("uniform", func(b *testing.B) {
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
	})
	b.Run("mixed-horizon", func(b *testing.B) {
		// The thousand-node topology's shape: ≈ 1000 pending, and of every
		// 100 schedules 20 LAN deliveries (100–300 µs), 79 WAN ones
		// (20–145 ms) and one far event (1–20 s), from a fixed pseudo-
		// random sequence.
		s := NewScheduler()
		fn := func() {}
		rng := rand.New(rand.NewSource(1))
		delays := make([]simtime.Instant, 4096)
		for i := range delays {
			switch c := rng.Intn(100); {
			case c < 20:
				delays[i] = us(100 + rng.Intn(200))
			case c < 99:
				delays[i] = ms(20) + us(rng.Intn(125_000))
			default:
				delays[i] = after(time.Second) + ms(rng.Intn(19_000))
			}
		}
		for i := 0; i < 1000; i++ {
			s.After(delays[i%len(delays)], fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(delays[i%len(delays)], fn)
			s.Step()
		}
	})
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
