// Package clock provides the virtual time base used throughout the Aurora
// reproduction.
//
// The paper's evaluation ran on real hardware (dual Xeon 4116, four striped
// Optane 900P NVMe devices). This reproduction runs the same algorithms over
// a simulated substrate, so durations are accounted against a virtual clock:
// every mechanism does its real structural work (pages are copied, shadow
// chains are built, blocks are written) and charges the modeled cost of that
// work to a Clock. Experiments read elapsed virtual time; testing.B benches
// additionally measure the real Go implementation.
package clock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual time source.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current virtual time as an offset from the clock's
	// epoch.
	Now() time.Duration
	// Advance moves virtual time forward by d. Advancing by a negative
	// duration panics: virtual time never runs backwards.
	Advance(d time.Duration)
}

// Virtual is the standard Clock implementation. The zero value is a valid
// clock positioned at its epoch.
//
// Its counter is the one word of a machine shared outside the kernel lock
// (kern.Gate), so it stays atomic: a syscall charges the gate crossing
// before it enters the kernel, and the checkpointer charges its IPI rounds
// and starts its stop-time stopwatch before it stops the kernel, each while
// simulated threads may be running inside it.
type Virtual struct {
	now atomic.Int64
}

// NewVirtual returns a virtual clock positioned at its epoch.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (c *Virtual) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d.
func (c *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative advance %v", d))
	}
	c.now.Add(int64(d))
}

// Stopwatch measures an interval of virtual time on a Clock.
type Stopwatch struct {
	c     Clock
	start time.Duration
}

// StartStopwatch begins timing on c.
func StartStopwatch(c Clock) Stopwatch {
	return Stopwatch{c: c, start: c.Now()}
}

// Elapsed reports the virtual time accumulated since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return s.c.Now() - s.start }

// Discard is a Clock that accepts advances and discards them. It is useful
// for running a mechanism purely for its structural side effects.
type Discard struct{}

// Now always returns zero.
func (Discard) Now() time.Duration { return 0 }

// Advance discards the charge after validating it.
func (Discard) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: negative advance %v", d))
	}
}
