package vtime

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %g, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(2.5)
	if got := c.Now(); got != 4.0 {
		t.Fatalf("Now() = %g, want 4.0", got)
	}
}

func TestClockAdvanceIgnoresNegativeAndNaN(t *testing.T) {
	var c Clock
	c.Advance(3)
	c.Advance(-1)
	c.Advance(math.NaN())
	if got := c.Now(); got != 3 {
		t.Fatalf("Now() = %g, want 3 (negative/NaN advances must be ignored)", got)
	}
}

func TestClockMergeAtLeast(t *testing.T) {
	var c Clock
	c.Advance(5)
	c.MergeAtLeast(3) // earlier: no effect
	if c.Now() != 5 {
		t.Fatalf("merge with earlier time changed clock to %g", c.Now())
	}
	c.MergeAtLeast(9)
	if c.Now() != 9 {
		t.Fatalf("merge with later time gave %g, want 9", c.Now())
	}
}

func TestClockSetPanicsOnBackwardMove(t *testing.T) {
	var c Clock
	c.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Set backwards did not panic")
		}
	}()
	c.Set(1)
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: any sequence of Advance/MergeAtLeast leaves the clock
	// monotonically non-decreasing.
	f := func(deltas []float64) bool {
		var c Clock
		prev := 0.0
		for i, d := range deltas {
			if i%2 == 0 {
				c.Advance(d)
			} else {
				c.MergeAtLeast(d)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakespan(t *testing.T) {
	if m := Makespan(nil); m != 0 {
		t.Fatalf("Makespan(nil) = %g, want 0", m)
	}
	if m := Makespan([]float64{1, 7, 3}); m != 7 {
		t.Fatalf("Makespan = %g, want 7", m)
	}
}

func TestMakespanIsMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// sanitize: makespan only meaningful for non-negative times
		for i := range xs {
			xs[i] = math.Abs(xs[i])
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		m := Makespan(xs)
		for _, x := range xs {
			if x > m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0s"},
		{5e-9, "5.0ns"},
		{74e-6, "74.0us"},
		{1.25e-3, "1.25ms"},
		{3.2, "3.20s"},
		{800, "13.3min"},
		{7200, "2.00h"},
	}
	for _, c := range cases {
		if got := Format(c.in); got != c.want {
			t.Errorf("Format(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatNoEmpty(t *testing.T) {
	f := func(x float64) bool {
		s := Format(math.Abs(x))
		return strings.TrimSpace(s) != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
