package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100*Nanosecond, func() {
		e.After(50*Nanosecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 150*Nanosecond {
		t.Fatalf("After fired at %v, want 150ns", at)
	}
}

func TestEngineSchedulingIntoPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(20*Nanosecond, func() { fired++ })
	e.At(30*Nanosecond, func() { fired++ })
	e.RunUntil(20 * Nanosecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20*Nanosecond {
		t.Fatalf("Now() = %v, want 20ns", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntilAdvancesClockToDeadline(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42 * Nanosecond)
	if e.Now() != 42*Nanosecond {
		t.Fatalf("Now() = %v, want 42ns", e.Now())
	}
}

func TestEngineCascadedEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			e.After(1*Nanosecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if e.Now() != 999*Nanosecond {
		t.Fatalf("Now() = %v, want 999ns", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{227 * Nanosecond, "227ns"},
		{1400 * Nanosecond, "1.4us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromNanos(t *testing.T) {
	if got := FromNanos(227); got != 227*Nanosecond {
		t.Errorf("FromNanos(227) = %v", got)
	}
	if got := FromNanos(0.5); got != 500*Picosecond {
		t.Errorf("FromNanos(0.5) = %v", got)
	}
}

func TestServerFIFO(t *testing.T) {
	var s Server
	start, done := s.Schedule(0, 10*Nanosecond)
	if start != 0 || done != 10*Nanosecond {
		t.Fatalf("first job start=%v done=%v", start, done)
	}
	// Arrives while busy: queues behind the first job.
	start, done = s.Schedule(5*Nanosecond, 10*Nanosecond)
	if start != 10*Nanosecond || done != 20*Nanosecond {
		t.Fatalf("second job start=%v done=%v", start, done)
	}
	// Arrives after idle: starts immediately.
	start, done = s.Schedule(100*Nanosecond, 5*Nanosecond)
	if start != 100*Nanosecond || done != 105*Nanosecond {
		t.Fatalf("third job start=%v done=%v", start, done)
	}
	if s.Jobs() != 3 {
		t.Fatalf("Jobs() = %d, want 3", s.Jobs())
	}
	if s.BusyTime() != 25*Nanosecond {
		t.Fatalf("BusyTime() = %v, want 25ns", s.BusyTime())
	}
}

func TestServerUtilization(t *testing.T) {
	var s Server
	s.Schedule(0, 50*Nanosecond)
	if u := s.Utilization(100 * Nanosecond); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
}

// Property: for any job sequence, start >= arrival, done = start + service,
// and service intervals never overlap.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(arrivals []uint16, services []uint8) bool {
		var s Server
		n := len(arrivals)
		if len(services) < n {
			n = len(services)
		}
		var prevDone Time
		var arr Time
		for i := 0; i < n; i++ {
			arr += Time(arrivals[i]) // monotone non-decreasing arrivals
			svc := Time(services[i])
			start, done := s.Schedule(arr, svc)
			if start < arr {
				return false
			}
			if done != start+svc {
				return false
			}
			if start < prevDone {
				return false // overlap
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced identical first values")
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(13)
	base := 100 * Nanosecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.1)
		if j < 90*Nanosecond || j > 110*Nanosecond {
			t.Fatalf("Jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter must be identity")
	}
}

// Property: any batch of randomly-timed events executes in
// non-decreasing time order, with scheduling order breaking ties.
func TestEventOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, d := range delays {
			i, at := i, Time(d)*Nanosecond
			e.At(at, func() { log = append(log, fired{at: at, seq: i}) })
		}
		e.Run()
		if len(log) != len(delays) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// AlignTo parks the clock on a timeline cut without executing
// anything; a pending event before the cut would be skipped, so it must
// refuse loudly instead.
func TestAlignToPanicsOnSkippedEvent(t *testing.T) {
	e := NewEngine()
	e.AlignTo(5 * Microsecond)
	if e.Now() != 5*Microsecond {
		t.Fatalf("AlignTo parked the clock at %v, want 5us", e.Now())
	}
	e.At(10*Microsecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AlignTo skipped a pending event without panicking")
		}
	}()
	e.AlignTo(50 * Microsecond)
}
