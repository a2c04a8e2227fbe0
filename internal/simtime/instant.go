// Package simtime models the reference timeline and the clock hardware of
// the reproduction: the Time Authority's reference time, per-core
// TimeStamp Counters (TSC) with hypervisor-controlled manipulation, and
// CPU core frequency for INC-instruction counting.
//
// Reference time is the ground truth every drift measurement in the paper
// is taken against. Nodes never read it directly; only the experiment
// harness and the Time Authority do.
package simtime

import (
	"fmt"
	"time"
)

// Instant is a point on the reference timeline, in nanoseconds since the
// experiment epoch. The zero Instant is the epoch itself.
type Instant int64

// Epoch is the origin of the reference timeline.
const Epoch Instant = 0

// FromSeconds converts seconds of reference time since the epoch to an
// Instant, truncating toward zero to a whole nanosecond.
func FromSeconds(s float64) Instant {
	return Instant(s * float64(time.Second))
}

// FromDuration converts an offset from the epoch to an Instant.
func FromDuration(d time.Duration) Instant { return Instant(d) }

// Add returns the instant d after i.
func (i Instant) Add(d time.Duration) Instant { return i + Instant(d) }

// Sub returns the duration from j to i (i - j).
func (i Instant) Sub(j Instant) time.Duration { return time.Duration(i - j) }

// Seconds expresses the instant as seconds since the epoch.
func (i Instant) Seconds() float64 { return float64(i) / float64(time.Second) }

// Before reports whether i precedes j.
func (i Instant) Before(j Instant) bool { return i < j }

// After reports whether i follows j.
func (i Instant) After(j Instant) bool { return i > j }

// String renders the instant as a duration offset from the epoch.
func (i Instant) String() string {
	return fmt.Sprintf("t+%s", time.Duration(i))
}
