// Package sim is a deterministic discrete-event simulation engine. Every
// experiment in the reproduction runs on it: simulated hours of protocol
// time execute in milliseconds, and a fixed seed reproduces the exact
// event interleaving, which is essential for debugging attack scenarios.
package sim

import (
	"fmt"
	"math"
	"math/bits"

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
	if sl.gen != e.gen || sl.pos == idle {
		return simtime.Epoch
	}
	return sl.at
}

// slot is the in-place storage of one scheduled (or free) event, or of
// one timer. A timer keeps its slot for good: it is never released, so
// gen stays unused and fn is written once.
type slot struct {
	at  simtime.Instant
	seq uint64 // tie-breaker: schedule order at equal instants
	fn  func()
	gen uint32 // bumped on release; invalidates outstanding handles
	// pos locates the slot: its index in the far or timer heap when
	// ≥ 0, idle while free (event) or disarmed (timer), and bucketPos(b)
	// while the event waits in calendar bucket b.
	pos int32
	// next and prev link the slot into its bucket's ring. While the slot
	// is free, next is the next free slot (-1 at the tail).
	next, prev int32
}

// idle is the pos of a free event slot or a disarmed timer.
const idle = -1

// bucketPos is the pos of an event waiting in bucket b; bucketOfPos
// inverts it.
func bucketPos(b int) int32     { return int32(-2 - b) }
func bucketOfPos(pos int32) int { return int(-2 - pos) }

// The calendar's geometry: a bucket spans 2^bucketShift ns ≈ 65.5 µs,
// the window bucketCount buckets ≈ 268 ms. At the thousand-node
// topology's density (a firing every ≈ 140 µs, ≈ 1000 pending) this
// puts a LAN delivery (100 µs plus jitter) one to four buckets past the
// cursor and every WAN delivery (20–145 ms) inside the window, while a
// bucket holds a few entries, so its sorted insert stays short. What
// lies beyond — timeouts, AEX and churn schedules seconds out, ≈ 1 % of
// that topology's one-shot events — waits in the far heap. Only the
// cost depends on these numbers, never the order of firings, so they
// are constants and not knobs.
const (
	bucketShift = 16
	bucketCount = 4096
	bucketMask  = bucketCount - 1
	bitmapWords = bucketCount / 64
)

// bucketOf is the absolute calendar bucket an instant falls in.
func bucketOf(at simtime.Instant) int64 { return int64(at) >> bucketShift }

// heapArity is the fan-out of the far and timer heaps. A 4-ary heap
// halves the tree depth of a binary heap; with cheap (at, seq)
// comparisons the extra per-level compares are better than the extra
// levels, and the node's children share a cache line.
const heapArity = 4

// Scheduler is the simulation's event loop. It is single-threaded: all
// simulated components run inside callbacks dispatched by Run/Step, so no
// locking is needed anywhere in the simulated stack.
//
// It holds two kinds of pending work. One-shot events (At/After) live in
// a calendar queue: a window of bucketCount fixed-width buckets that
// starts at the cursor bucket, each bucket a ring of slots sorted by
// (at, seq), with a bitmap of the non-empty ones. An event due at or
// after the window's end waits in the far heap, an index-addressed
// min-heap, and moves into its bucket once the cursor has advanced far
// enough for the window to cover it. Timers (NewTimer) are owner-held
// and re-armable; the armed ones live in a second, small min-heap of
// their own. Every entry sits in the one slot array, freed event slots
// are recycled through an intrusive free list, and every entry draws
// seq from the one counter below at the moment it is scheduled (a timer
// armed with SetFirst holds a fixed one below them all), so (at, seq) is
// a single total order over everything pending.
//
// The least one-shot event is the head of the first non-empty bucket
// from the cursor on, by construction: the window's buckets cover
// consecutive time ranges in ring order from the cursor, each is
// sorted, and every far event is due no earlier than the window's end.
// Only firing a bucketed event moves the cursor, to that event's bucket
// and over empty ones; a peek (NextAt, or a step whose deadline falls
// short) leaves it alone. So the cursor never passes the current time,
// and nothing can be scheduled before the window. Step fires the lesser
// of that head (the far root when no bucket holds anything) and the
// timer heap's root — exactly the event a single queue holding all of
// them would fire. No bucket, heap or window position is observable.
//
// Steady-state At/After/Step/Cancel and Timer.Set/Stop perform zero heap
// allocations: the bucket array is fixed, and the slot array and heaps
// only grow when the number of simultaneously pending entries exceeds
// every previous high-water mark. Buckets and heaps hold indices, not
// pointers, so linking and sifting never run a GC write barrier.
type Scheduler struct {
	now   simtime.Instant
	slots []slot
	// cursor is the absolute bucket (bucketOf) the window starts at, and
	// near counts the events in its buckets.
	cursor int64
	near   int
	// first and head memoise the least one-shot event, so that the steps
	// between two one-shot firings — timers fire in between, and the
	// real-time loop peeks after every wake — read it without a search.
	// head is its slot; first is its absolute bucket, farHead when the
	// calendar is empty and head is the far heap's root, and -1 when the
	// memo is void: the least bucket drained, or the far root changed
	// while it stood for it.
	first  int64
	head   uint32
	far    []uint32 // one-shot events past the window: slot indices, min-heap on (at, seq)
	timers []uint32 // armed timers: slot indices, min-heap on (at, seq)
	free   int32    // head of the free-slot list, -1 when empty
	seq    uint64   // shared by one-shot events and timers, from seqBase on
	// firing marks that the root of the timer heap is a timer whose
	// callback is running; see fireTimer.
	firing bool
	halted bool
	// heads holds each bucket's least slot index + 1, 0 when the bucket
	// is empty; nonEmpty has one bit per bucket with a head. They come
	// last, so that the fields every step reads share the first cache
	// lines rather than sit 16 KB apart.
	nonEmpty [bitmapWords]uint64
	heads    [bucketCount]uint32
}

// farHead is first while the memo stands for the far heap's root.
const farHead = math.MaxInt64

// seqBase is the first seq At and Set draw. The seqs below it are the
// fixed ranks of timers armed with SetFirst, each its own slot index, so
// at one instant those timers fire before every other entry, in the
// order they were made.
const seqBase = 1 << 32

// NewScheduler returns a scheduler positioned at the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{free: -1, first: -1, seq: seqBase}
}

// Now reports the current simulated reference time.
func (s *Scheduler) Now() simtime.Instant { return s.now }

// Pending reports how many firings are waiting: one-shot events plus
// armed timers. An idle timer (never set, stopped, or fired and not
// re-armed) does not count.
func (s *Scheduler) Pending() int {
	n := s.near + len(s.far) + len(s.timers)
	if s.firing {
		n-- // idle while its callback runs
	}
	return n
}

// NextAt reports the instant of the next pending firing, event or
// timer, and false when nothing is pending. A real-time loop that maps
// the timeline onto a wall clock sleeps until then.
func (s *Scheduler) NextAt() (simtime.Instant, bool) {
	if s.firing {
		s.settleFiring() // the root timer is idle while its callback runs
	}
	ev, ok := s.nextEvent()
	switch {
	case len(s.timers) > 0 && (!ok || s.less(s.timers[0], ev)):
		return s.slots[s.timers[0]].at, true
	case ok:
		return s.slots[ev].at, true
	}
	return simtime.Epoch, false
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
//
//triad:hotpath
func (s *Scheduler) At(at simtime.Instant, fn func()) Event {
	s.checkNotPast(at)
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.at = at
	sl.seq = s.seq
	sl.fn = fn
	s.seq++
	if s.near == 0 {
		s.slide(bucketOf(s.now)) // an empty calendar restarts its window now
	}
	s.place(idx)
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
	if sl.gen != e.gen || sl.pos == idle {
		return
	}
	if sl.pos >= 0 {
		s.remove(&s.far, int(sl.pos))
		s.farChanged()
	} else {
		s.unlink(idx)
	}
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

// stepUntil fires the least (at, seq) entry of the calendar and the
// timer heap unless it is due after deadline, and reports whether it
// fired.
//
//triad:hotpath
func (s *Scheduler) stepUntil(deadline simtime.Instant) bool {
	if s.firing {
		s.settleFiring() // a callback is stepping the scheduler itself
	}
	ev, ok := s.nextEvent()
	if len(s.timers) > 0 && (!ok || s.less(s.timers[0], ev)) {
		t := &s.slots[s.timers[0]]
		if t.at > deadline {
			return false
		}
		s.now = t.at
		s.fireTimer(t.fn)
		return true
	}
	if !ok || s.slots[ev].at > deadline {
		return false
	}
	sl := &s.slots[ev]
	if sl.pos >= 0 {
		s.popRoot(&s.far)
		s.farChanged()
	} else {
		s.unlink(ev)
		s.slide(bucketOf(sl.at))
	}
	s.now = sl.at
	fn := sl.fn
	s.release(ev) // before fn: the callback may reschedule into this slot
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
		s.free = s.slots[idx].next
		return idx
	}
	s.slots = append(s.slots, slot{pos: idle, next: -1})
	return uint32(len(s.slots) - 1)
}

// release returns a slot to the free list. Dropping fn here both frees
// the callback's captures promptly and prevents a stale closure from
// ever firing out of a recycled slot.
func (s *Scheduler) release(idx uint32) {
	sl := &s.slots[idx]
	sl.fn = nil
	sl.gen++
	sl.pos = idle
	sl.next = s.free
	s.free = int32(idx)
}

// less orders slots by firing time, then seq: a strict total order, so
// the firing sequence is independent of where entries sit.
func (s *Scheduler) less(a, b uint32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	return keyLess(sa.at, sa.seq, sb.at, sb.seq)
}

func keyLess(at simtime.Instant, seq uint64, oAt simtime.Instant, oSeq uint64) bool {
	return at < oAt || (at == oAt && seq < oSeq)
}

// nextEvent returns the least pending one-shot event without moving
// anything: the head of the first non-empty bucket from the cursor on,
// or the far heap's root when no bucket holds anything. It is small
// enough to inline into the step loop, which reads the memo; seekEvent
// renews a void one.
//
//triad:hotpath
func (s *Scheduler) nextEvent() (uint32, bool) {
	if s.first >= 0 {
		return s.head, true
	}
	return s.seekEvent()
}

func (s *Scheduler) seekEvent() (uint32, bool) {
	if s.near == 0 {
		if len(s.far) == 0 {
			return 0, false
		}
		s.first, s.head = farHead, s.far[0]
		return s.head, true
	}
	s.first = s.cursor + int64(s.gap(int(s.cursor&bucketMask)))
	s.head = s.heads[s.first&bucketMask] - 1
	return s.head, true
}

// farChanged voids the memo if it stands for the far heap's root, which
// a push, pop or removal may have replaced. A calendar memo outlives
// such a change: every far event sorts after every bucketed one.
func (s *Scheduler) farChanged() {
	if s.first == farHead {
		s.first = -1
	}
}

// gap is the distance from bucket b to the first non-empty one at or
// after it in ring order. The calendar must hold an event.
func (s *Scheduler) gap(b int) int {
	w := b >> 6
	if m := s.nonEmpty[w] >> (b & 63); m != 0 {
		return bits.TrailingZeros64(m)
	}
	d := 64 - (b & 63)
	for i := 1; ; i++ {
		if m := s.nonEmpty[(w+i)%bitmapWords]; m != 0 {
			return d + bits.TrailingZeros64(m)
		}
		d += 64
	}
}

// slide moves the window forward to start at bucket c, no later than
// the current time's, and brings in the far events it now covers. The
// buckets it passes must be empty: it is called with the bucket of the
// event just fired, or with the calendar empty. The newcomers land in
// the buckets the cursor has just left, now at the window's far end.
func (s *Scheduler) slide(c int64) {
	s.cursor = c
	end := c + bucketCount
	for len(s.far) > 0 && bucketOf(s.slots[s.far[0]].at) < end {
		s.place(s.popRoot(&s.far))
	}
}

// place files a one-shot event, due no earlier than the cursor bucket:
// into its bucket when the window covers it, into the far heap when it
// is due at or after the window's end.
//
//triad:hotpath
func (s *Scheduler) place(idx uint32) {
	b := bucketOf(s.slots[idx].at)
	if b >= s.cursor+bucketCount {
		s.push(&s.far, idx)
		s.farChanged()
		return
	}
	s.link(b, idx)
}

// link inserts idx into absolute bucket abs's ring at its (at, seq)
// place. The search runs back from the tail: a new event carries the
// largest seq yet, so among equal instants it goes last.
//
//triad:hotpath
func (s *Scheduler) link(abs int64, idx uint32) {
	if s.near == 0 || (s.first >= 0 && abs < s.first) {
		s.first, s.head = abs, idx // alone in the least bucket
	}
	b := int(abs & bucketMask)
	slots := s.slots
	sl := &slots[idx]
	sl.pos = bucketPos(b)
	s.near++
	h := s.heads[b]
	if h == 0 {
		sl.next, sl.prev = int32(idx), int32(idx)
		s.heads[b] = idx + 1
		s.nonEmpty[b>>6] |= 1 << (b & 63)
		return
	}
	head := h - 1
	tail := uint32(slots[head].prev)
	after := tail
	for s.less(idx, after) {
		if after == head { // least of the bucket: the new head, after the tail
			s.heads[b] = idx + 1
			if abs == s.first {
				s.head = idx
			}
			after = tail
			break
		}
		after = uint32(slots[after].prev)
	}
	next := slots[after].next
	sl.prev, sl.next = int32(after), next
	slots[after].next = int32(idx)
	slots[next].prev = int32(idx)
}

// unlink takes idx out of its bucket's ring.
//
//triad:hotpath
func (s *Scheduler) unlink(idx uint32) {
	slots := s.slots
	sl := &slots[idx]
	b := bucketOfPos(sl.pos)
	s.near--
	if sl.next == int32(idx) { // alone in the bucket
		s.heads[b] = 0
		s.nonEmpty[b>>6] &^= 1 << (b & 63)
		if s.first&bucketMask == int64(b) {
			s.first = -1
		}
		return
	}
	slots[sl.prev].next = sl.next
	slots[sl.next].prev = sl.prev
	if s.heads[b] == idx+1 {
		s.heads[b] = uint32(sl.next) + 1
		if s.first&bucketMask == int64(b) {
			s.head = uint32(sl.next)
		}
	}
}

// The heap helpers below serve both heaps: heap is &s.far or &s.timers
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
			if keyLess(sc.at, sc.seq, minAt, minSeq) {
				min, minAt, minSeq = c, sc.at, sc.seq
			}
		}
		if keyLess(at, seq, minAt, minSeq) {
			break
		}
		h[i] = h[min]
		slots[h[i]].pos = int32(i)
		i = min
	}
	h[i] = idx
	slots[idx].pos = int32(i)
}
