// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and executes events in (time, sequence)
// order. Simulated processes are coroutines (iter.Pull) run on pooled
// workers: the kernel loop switches to one process at a time and gets
// control back when it parks or exits, so simulations are fully
// deterministic and race-free without locks in model code.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on (or a span of) the simulated clock, in nanoseconds.
// The zero Time is the simulation epoch.
type Time int64

// Common durations, mirroring time.Duration granularity.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxInt64

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
// It saturates at MaxTime rather than overflowing.
func FromSeconds(s float64) Time {
	ns := s * float64(Second)
	if ns >= float64(math.MaxInt64) {
		return MaxTime
	}
	return Time(ns)
}

// SaturatingAdd returns t+d, clamped to [0, MaxTime] instead of wrapping.
func (t Time) SaturatingAdd(d Time) Time {
	s := t + d
	if d > 0 && s < t {
		return MaxTime
	}
	if d < 0 && s > t {
		return 0
	}
	return s
}

// String formats the time with an adaptive unit, e.g. "1.500s" or "250µs".
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "∞"
	case t == -MaxTime || t == math.MinInt64:
		return "-∞"
	case t < 0:
		return "-" + (-t).String()
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}
