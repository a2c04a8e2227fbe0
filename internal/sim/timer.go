package sim

import "triadtime/internal/simtime"

// Timer is a re-armable scheduled callback held by its owner, for a
// process that fires again and again for a whole run, such as a node's
// monitoring loop or a synthetic AEX generator. Where a chain of one-shot
// events takes a slot, a generation and a handle per firing, a timer is
// built once and only its key changes. It lives as long as its scheduler
// does: make one per recurring process, not one per firing. Armed timers
// are searched on every Step, so a process that fires rarely next to ones
// that fire all the time is better left on one-shot events, where it does
// not deepen the timer heap the busy ones sift through.
//
// A timer fires exactly where the one-shot event scheduled by the same
// call at the same moment would have: Set draws seq from the
// scheduler's one counter, just as At does, and Stop, like Cancel,
// draws none. SetFirst instead puts it ahead of everything At and Set
// schedule at its instant. Like Event, a Timer is a small handle: copies
// refer to the same timer.
type Timer struct {
	s   *Scheduler
	idx uint32 // the timer's slot
}

// NewTimer returns an idle timer that runs fn each time it fires.
func (s *Scheduler) NewTimer(fn func()) Timer {
	s.slots = append(s.slots, slot{fn: fn, pos: idle, next: -1})
	return Timer{s: s, idx: uint32(len(s.slots) - 1)}
}

// Set arms the timer to fire at the given instant, replacing any
// earlier setting; like At it panics on an instant in the past. A timer
// is idle while its own callback runs, so calling Set from inside it is
// the supported way to re-arm — it behaves exactly as it does from
// anywhere else.
//
//triad:hotpath
func (t Timer) Set(at simtime.Instant) {
	s := t.s
	t.arm(at, s.seq)
	s.seq++
}

// SetFirst arms the timer as Set does, but at a fixed rank below every
// seq At and Set draw (seqBase): at its instant it fires before every
// entry they schedule, whenever they were scheduled. Among timers armed
// with SetFirst at one instant, the one made first fires first. It is
// for a process that must come first at an instant, such as a
// monitoring window's completion.
//
//triad:hotpath
func (t Timer) SetFirst(at simtime.Instant) {
	t.arm(at, uint64(t.idx))
}

// arm sets the timer's key to (at, seq) and files it in the timer heap.
//
//triad:hotpath
func (t Timer) arm(at simtime.Instant, seq uint64) {
	s := t.s
	s.checkNotPast(at)
	sl := &s.slots[t.idx]
	if s.firing && sl.pos != 0 && keyLess(at, seq, s.slots[s.timers[0]].at, s.slots[s.timers[0]].seq) {
		// A timer armed ahead of the one whose callback is running
		// would take its place at the root: take the firing one out
		// first.
		s.settleFiring()
	}
	later := !keyLess(at, seq, sl.at, sl.seq)
	sl.at, sl.seq = at, seq
	switch {
	case sl.pos < 0:
		s.push(&s.timers, t.idx)
	case s.firing && sl.pos == 0:
		s.firing = false
		s.siftDown(s.timers, 0)
	case later:
		s.siftDown(s.timers, int(sl.pos))
	default:
		s.siftUp(s.timers, int(sl.pos))
	}
}

// Stop disarms the timer. Stopping an idle timer is a no-op.
//
//triad:hotpath
func (t Timer) Stop() {
	s := t.s
	pos := s.slots[t.idx].pos
	if pos < 0 || (s.firing && pos == 0) {
		return
	}
	s.remove(&s.timers, int(pos))
	s.slots[t.idx].pos = -1
}

// fireTimer runs fn, the callback of the timer at the root of the timer
// heap. The common callback sets its own timer again, so the timer is
// left in place while it runs: as the least key of a heap whose
// newcomers all sort later, it keeps the heap valid, and a Set from the
// callback then costs one sift-down from the root instead of a removal
// and an insertion. (A lower key from SetFirst leaves it least all
// the same; another timer armed below it first takes it out.) To
// everything outside this package the timer is idle throughout.
//
//triad:hotpath
func (s *Scheduler) fireTimer(fn func()) {
	s.firing = true
	fn()
	if s.firing {
		s.settleFiring() // not set again: really take it out
	}
}

// settleFiring takes the firing timer out of the heap root it was left
// in.
func (s *Scheduler) settleFiring() {
	s.firing = false
	s.slots[s.popRoot(&s.timers)].pos = -1
}
