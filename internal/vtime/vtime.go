// Package vtime provides virtual-time clocks for performance simulation.
//
// Every simulated node in the runtime owns a Clock. Computation advances a
// clock by a modelled duration; receiving a message merges the sender's
// timestamp Lamport-style (the receiver clock becomes the maximum of its own
// value and the message arrival time). Because clock values are derived only
// from modelled costs and message timestamps, the simulated makespan of a
// program whose receives name exact sources is independent of how the host
// scheduler interleaves goroutines.
package vtime

import (
	"fmt"
	"math"
)

// Clock is a monotonically non-decreasing virtual clock measured in seconds.
// The zero value is a clock at time zero, ready to use. Clock is not safe for
// concurrent use; each simulated process owns exactly one.
type Clock struct {
	t float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.t }

// Advance moves the clock forward by d seconds. Negative or NaN durations
// are ignored so that a buggy cost model cannot move time backwards.
func (c *Clock) Advance(d float64) {
	if d > 0 && !math.IsNaN(d) {
		c.t += d
	}
}

// MergeAtLeast raises the clock to t if t is later than the current time.
// It implements the Lamport max-merge used on message receipt.
func (c *Clock) MergeAtLeast(t float64) {
	if t > c.t {
		c.t = t
	}
}

// Set forces the clock to an absolute time. It is intended for restoring
// checkpointed state in tests; Set panics if it would move time backwards.
func (c *Clock) Set(t float64) {
	if t < c.t {
		panic(fmt.Sprintf("vtime: Set(%g) would move clock backwards from %g", t, c.t))
	}
	c.t = t
}

// Makespan returns the maximum of the given clock times; it is the virtual
// wall-clock duration of a parallel program whose processes finished at the
// given times. An empty slice yields 0.
func Makespan(times []float64) float64 {
	max := 0.0
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	return max
}

// Format renders a duration in seconds using an appropriate SI unit, e.g.
// "74.0us", "1.25ms", "3.20s".
func Format(seconds float64) string {
	abs := math.Abs(seconds)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.1fns", seconds*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.1fus", seconds*1e6)
	case abs < 1:
		return fmt.Sprintf("%.2fms", seconds*1e3)
	case abs < 120:
		return fmt.Sprintf("%.2fs", seconds)
	case abs < 7200:
		return fmt.Sprintf("%.1fmin", seconds/60)
	default:
		return fmt.Sprintf("%.2fh", seconds/3600)
	}
}
