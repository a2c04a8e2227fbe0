// Package sim is a deterministic discrete-event simulation engine. Every
// experiment in the reproduction runs on it: simulated hours of protocol
// time execute in milliseconds, and a fixed seed reproduces the exact
// event interleaving, which is essential for debugging attack scenarios.
package sim

import (
	"fmt"
	"math"

	"triadtime/internal/simtime"
)

// Event is a cancellable handle to a scheduled callback. It is a small
// value (no per-event heap object): the scheduler stores event state in
// an internal slot array and hands out generation-stamped indices, so a
// stale handle — one whose event already fired or was cancelled — can
// never touch a reused slot. The zero Event is inert: Cancel ignores it.
type Event struct {
	s   *Scheduler
	id  uint32 // slot index + 1; 0 marks the zero (inert) handle
	gen uint32 // slot generation at schedule time
}

// At reports when the event fires. Once the event has fired or been
// cancelled the handle is stale and At reports the epoch.
func (e Event) At() simtime.Instant {
	if e.s == nil || e.id == 0 {
		return simtime.Epoch
	}
	sl := &e.s.slots[e.id-1]
	if sl.gen != e.gen || sl.pos < 0 {
		return simtime.Epoch
	}
	return sl.at
}

// slot is the in-place storage of one scheduled (or free) event, or of
// one timer. A timer keeps its slot for good: it is never released, so
// gen and nextFree stay unused and fn is written once.
type slot struct {
	at       simtime.Instant
	seq      uint64 // tie-breaker: schedule order at equal instants
	fn       func()
	gen      uint32 // bumped on release; invalidates outstanding handles
	pos      int32  // index in its heap, -1 while free (event) or idle (timer)
	nextFree int32  // next slot in the free list, -1 at the tail
}

// heapArity is the fan-out of the event queue. A 4-ary heap halves the
// tree depth of a binary heap; with cheap (at, seq) comparisons the
// extra per-level compares are better than the extra levels, and the
// node's children share a cache line.
const heapArity = 4

// Scheduler is the simulation's event loop. It is single-threaded: all
// simulated components run inside callbacks dispatched by Run/Step, so no
// locking is needed anywhere in the simulated stack.
//
// It holds two kinds of pending work. One-shot events (At/After) live in
// a hand-specialized index-addressed min-heap over the slot array, with
// freed slots recycled through an intrusive free list. Timers (NewTimer)
// are owner-held and re-armable; the armed ones live in a second, small
// min-heap of their own over the same slot array. Both are ordered by
// (at, seq), and both draw seq from the one counter below at the moment
// they are scheduled, so (at, seq) is a single total order over
// everything pending: Step fires the lesser of the two roots, which is
// exactly the event a single queue holding all of them would fire.
// Neither heap's shape, nor which heap an entry sits in, is observable.
//
// Steady-state At/After/Step/Cancel and Timer.Set/Stop perform zero heap
// allocations: the arrays only grow when the number of simultaneously
// pending entries exceeds every previous high-water mark. The heaps hold
// indices, not pointers, so sifting never runs a GC write barrier.
type Scheduler struct {
	now    simtime.Instant
	slots  []slot
	heap   []uint32 // one-shot events: slot indices, min-heap on (at, seq)
	timers []uint32 // armed timers: slot indices, min-heap on (at, seq)
	free   int32    // head of the free-slot list, -1 when empty
	seq    uint64   // shared by one-shot events and timers
	// firing marks that the root of the timer heap is a timer whose
	// callback is running; see fireTimer.
	firing bool
	halted bool
}

// NewScheduler returns a scheduler positioned at the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{free: -1}
}

// Now reports the current simulated reference time.
func (s *Scheduler) Now() simtime.Instant { return s.now }

// Pending reports how many firings are waiting: one-shot events plus
// armed timers. An idle timer (never set, stopped, or fired and not
// re-armed) does not count.
func (s *Scheduler) Pending() int {
	n := len(s.heap) + len(s.timers)
	if s.firing {
		n-- // idle while its callback runs
	}
	return n
}

// checkNotPast panics on scheduling in the past: it is always a
// modelling bug, and silently reordering events would destroy
// determinism.
func (s *Scheduler) checkNotPast(at simtime.Instant) {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, s.now))
	}
}

// At schedules fn to run at the given instant. Scheduling in the past
// panics.
func (s *Scheduler) At(at simtime.Instant, fn func()) Event {
	s.checkNotPast(at)
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.at = at
	sl.seq = s.seq
	sl.fn = fn
	s.seq++
	s.push(&s.heap, idx)
	return Event{s: s, id: idx + 1, gen: sl.gen}
}

// After schedules fn to run d after the current simulated time. Negative
// durations are treated as zero.
func (s *Scheduler) After(d simtime.Instant, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event. Cancelling the zero Event, an event
// that already fired, or one already cancelled is a no-op — the
// generation stamp makes stale handles harmless even after their slot
// has been reused by a later event.
func (s *Scheduler) Cancel(e Event) {
	if e.s != s || e.id == 0 {
		return
	}
	idx := e.id - 1
	sl := &s.slots[idx]
	if sl.gen != e.gen || sl.pos < 0 {
		return
	}
	s.remove(&s.heap, int(sl.pos))
	s.release(idx)
}

// Step fires the next pending event or timer and advances simulated
// time to it. It reports whether anything was fired.
//
//triad:hotpath
func (s *Scheduler) Step() bool {
	return s.stepUntil(maxInstant)
}

// maxInstant is the deadline of an unbounded run.
const maxInstant = simtime.Instant(math.MaxInt64)

// stepUntil fires the least (at, seq) entry of the two heaps unless it
// is due after deadline, and reports whether it fired.
//
//triad:hotpath
func (s *Scheduler) stepUntil(deadline simtime.Instant) bool {
	if s.firing {
		s.settleFiring() // a callback is stepping the scheduler itself
	}
	if len(s.timers) > 0 && (len(s.heap) == 0 || s.less(s.timers[0], s.heap[0])) {
		t := &s.slots[s.timers[0]]
		if t.at > deadline {
			return false
		}
		s.now = t.at
		s.fireTimer(t.fn)
		return true
	}
	if len(s.heap) == 0 || s.slots[s.heap[0]].at > deadline {
		return false
	}
	idx := s.popRoot(&s.heap)
	sl := &s.slots[idx]
	s.now = sl.at
	fn := sl.fn
	s.release(idx) // before fn: the callback may reschedule into this slot
	fn()
	return true
}

// RunUntil fires events in order until simulated time reaches deadline or
// the queue drains. Events scheduled exactly at the deadline fire. Time
// always ends at the deadline even if the queue drained earlier, so
// successive RunUntil calls see a monotone clock.
func (s *Scheduler) RunUntil(deadline simtime.Instant) {
	s.halted = false
	for !s.halted && s.stepUntil(deadline) {
	}
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// RunUntilIdle fires events until none remain or Halt is called. Only
// safe for models that quiesce; recurring processes never do.
func (s *Scheduler) RunUntilIdle() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// Halt stops the current Run* call after the in-flight event returns.
func (s *Scheduler) Halt() { s.halted = true }

// alloc takes a slot off the free list, growing the array only when no
// freed slot is available (i.e. at a new pending high-water mark).
func (s *Scheduler) alloc() uint32 {
	if s.free >= 0 {
		idx := uint32(s.free)
		s.free = s.slots[idx].nextFree
		return idx
	}
	s.slots = append(s.slots, slot{pos: -1, nextFree: -1})
	return uint32(len(s.slots) - 1)
}

// release returns a slot to the free list. Dropping fn here both frees
// the callback's captures promptly and prevents a stale closure from
// ever firing out of a recycled slot.
func (s *Scheduler) release(idx uint32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.gen++
	sl.pos = -1
	sl.nextFree = s.free
	s.free = int32(idx)
}

// less orders slots by firing time, then schedule order: a strict total
// order, so the firing sequence is independent of the heap's shape.
func (s *Scheduler) less(a, b uint32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// The heap helpers below serve both heaps: heap is &s.heap or &s.timers
// (h its contents), and a slot's pos indexes whichever one holds it.

func (s *Scheduler) push(heap *[]uint32, idx uint32) {
	*heap = append(*heap, idx)
	s.siftUp(*heap, len(*heap)-1)
}

// popRoot removes and returns the minimum slot index.
func (s *Scheduler) popRoot(heap *[]uint32) uint32 {
	h := *heap
	root := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		s.slots[h[0]].pos = 0
	}
	*heap = h[:n]
	if n > 1 {
		s.siftDown(h[:n], 0)
	}
	return root
}

// remove deletes the heap entry at position i.
func (s *Scheduler) remove(heap *[]uint32, i int) {
	h := *heap
	n := len(h) - 1
	*heap = h[:n]
	if i == n {
		return
	}
	moved := h[n]
	h[i] = moved
	s.slots[moved].pos = int32(i)
	s.siftDown(h[:n], i)
	if s.slots[moved].pos == int32(i) {
		s.siftUp(h[:n], i)
	}
}

func (s *Scheduler) siftUp(h []uint32, i int) {
	idx := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !s.less(idx, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.slots[h[i]].pos = int32(i)
		i = parent
	}
	h[i] = idx
	s.slots[idx].pos = int32(i)
}

func (s *Scheduler) siftDown(h []uint32, i int) {
	slots := s.slots
	n := len(h)
	idx := h[i]
	at, seq := slots[idx].at, slots[idx].seq
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		// The least child, its key kept in hand rather than re-read
		// through the slot array for every comparison.
		min := first
		minAt, minSeq := slots[h[first]].at, slots[h[first]].seq
		for c := first + 1; c < last; c++ {
			sc := &slots[h[c]]
			if sc.at < minAt || (sc.at == minAt && sc.seq < minSeq) {
				min, minAt, minSeq = c, sc.at, sc.seq
			}
		}
		if minAt > at || (minAt == at && minSeq > seq) {
			break
		}
		h[i] = h[min]
		slots[h[i]].pos = int32(i)
		i = min
	}
	h[i] = idx
	slots[idx].pos = int32(i)
}
