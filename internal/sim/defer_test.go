package sim

import (
	"slices"
	"testing"
)

// reserveMode is how the deferred workload below issues one event.
type reserveMode int

const (
	modeSchedule   reserveMode = iota // plain Schedule
	modeQueueNow                      // Reserve, then ScheduleReserved at once
	modeQueueLater                    // Reserve, ScheduleReserved at the chain's next tick if not passed
	modeNever                         // Reserve only: a logical event with no handler
)

// runDeferredWorkload drives chains of self-rescheduling events, each
// tick issuing its successor plainly or through a reservation queued at
// once, and a leaf event in any reserveMode, with time gaps drawn from
// small domains so (at, sat, pri) ties are common. sched is the plain
// Schedule the reference uses for every mode; eng, when non-nil, is the
// engine under test, which issues the non-plain modes through the
// deferred API. It returns the log of handler firings and the tags of
// reservations that were never queued.
func runDeferredWorkload(now func() Time, sched func(Time, func()), eng *Engine, run func()) (log []firedAt, phantom map[int64]bool) {
	phantom = map[int64]bool{}
	r := NewRand(99)
	type later struct {
		key Key
		tag int64
		fn  func()
	}
	var tick func(id, step int64, budget *int, pend *[]later)
	issue := func(tag int64, at Time, fn func(), leaf bool, pend *[]later) {
		mode := reserveMode(r.Intn(4))
		if !leaf {
			mode %= 2 // the chain's own next tick is always queued
		}
		if eng == nil || mode == modeSchedule {
			sched(at, fn)
			return
		}
		k := eng.Reserve(at)
		switch mode {
		case modeQueueNow:
			eng.ScheduleReserved(k, funcHandler(fn), EventArg{})
		case modeQueueLater:
			*pend = append(*pend, later{key: k, tag: tag, fn: fn})
		case modeNever:
			phantom[tag] = true
		}
	}
	tick = func(id, step int64, budget *int, pend *[]later) {
		log = append(log, firedAt{at: now(), tag: id<<32 | step<<4 | 15})
		if eng != nil {
			for _, l := range *pend {
				if eng.Passed(l.key) {
					phantom[l.tag] = true
				} else {
					eng.ScheduleReserved(l.key, funcHandler(l.fn), EventArg{})
				}
			}
			*pend = (*pend)[:0]
		}
		if *budget <= 0 {
			return
		}
		*budget--
		for j := int64(0); j < 2; j++ {
			gap := Time(r.Intn(3)) * Time(r.Intn(700)) * Picosecond
			if r.Intn(40) == 0 {
				gap += 2 * Microsecond // past the near window
			}
			if j == 0 {
				issue(0, now()+gap, func() { tick(id, step+1, budget, pend) }, false, pend)
			} else {
				leaf := id<<32 | (step+1)<<4 | 1
				issue(leaf, now()+gap, func() { log = append(log, firedAt{at: now(), tag: leaf}) }, true, pend)
			}
		}
	}
	for i := int64(0); i < 6; i++ {
		budget := 300
		var pend []later
		sched(Time(i%3)*Nanosecond, func() { tick(i, 0, &budget, &pend) })
	}
	run()
	return log, phantom
}

// A reserved key orders exactly where Schedule would have put it: the
// workload fires the same handlers in the same order as the sorted-slice
// reference (which schedules every event plainly), minus the
// reservations never queued, which still count as fired and still move
// the clock.
func TestReserveOrdersLikeSchedule(t *testing.T) {
	e := NewEngine()
	got, phantom := runDeferredWorkload(e.Now, func(at Time, fn func()) { e.At(at, fn) }, e, e.Run)
	var ref refEngine
	refFired := 0
	want, _ := runDeferredWorkload(func() Time { return ref.now },
		func(at Time, fn func()) { ref.schedule(at, func() { refFired++; fn() }) }, nil, ref.run)
	if len(phantom) == 0 {
		t.Fatal("workload made no phantom reservations")
	}
	// The reference fires the phantom leaves' handlers too: drop them.
	kept := want[:0]
	for _, f := range want {
		if !phantom[f.tag] {
			kept = append(kept, f)
		}
	}
	want = kept
	if !slices.Equal(got, want) {
		t.Fatalf("deferred engine diverged from the reference: %d vs %d firings", len(got), len(want))
	}
	if e.Now() != ref.now {
		t.Fatalf("final clock %v, reference %v", e.Now(), ref.now)
	}
	if e.Fired() != uint64(refFired) {
		t.Fatalf("Fired %d, reference fired %d", e.Fired(), refFired)
	}
	if q := e.Queued(); q >= e.Fired() {
		t.Fatalf("Queued %d not below Fired %d", q, e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending %d after Run", e.Pending())
	}
}

// Same-instant ties: a reserved key takes its Schedule position among
// events at the same (at, sat, pri), including at == now.
func TestReserveSameInstantTies(t *testing.T) {
	e := NewEngine()
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	e.At(10*Nanosecond, func() {
		now := e.Now()
		e.At(now, mark("a@now"))
		k := e.Reserve(now)
		e.At(now, mark("c@now"))
		e.ScheduleReserved(k, funcHandler(mark("b@now")), EventArg{})
		e.At(now+5, mark("d"))
		e.Reserve(now + 5) // never queued: counts, fires nothing
		k2 := e.Reserve(now + 5)
		e.At(now+5, mark("f"))
		e.ScheduleReserved(k2, funcHandler(mark("e")), EventArg{})
	})
	e.Run()
	want := []string{"a@now", "b@now", "c@now", "d", "e", "f"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if e.Fired() != 8 || e.Queued() != 7 {
		t.Fatalf("Fired %d Queued %d, want 8 and 7", e.Fired(), e.Queued())
	}
}

func TestScheduleReservedPassedPanics(t *testing.T) {
	e := NewEngine()
	var k Key
	e.At(0, func() { k = e.Reserve(5) })
	e.At(10, func() {})
	e.Run()
	if !e.Passed(k) {
		t.Fatal("key at 5 not passed at 10")
	}
	defer func() {
		if recover() == nil {
			t.Error("queueing a passed key did not panic")
		}
	}()
	e.ScheduleReserved(k, funcHandler(func() {}), EventArg{})
}

// A run ends with the clock on the last reserved key it stepped past —
// where a stepwise run leaves it — under Run, RunUntil and a windowed
// runEvents alike.
func TestReservedRunEndAlignment(t *testing.T) {
	setup := func() *Engine {
		e := NewEngine()
		e.At(10, func() { e.Reserve(50) })
		return e
	}

	e := setup()
	e.Run()
	if e.Now() != 50 || e.Fired() != 2 || e.Queued() != 1 {
		t.Fatalf("Run: now %v fired %d queued %d, want 50, 2, 1", e.Now(), e.Fired(), e.Queued())
	}

	e = setup()
	e.RunUntil(30)
	if e.Now() != 30 || e.Fired() != 1 || e.Pending() != 1 {
		t.Fatalf("RunUntil(30): now %v fired %d pending %d, want 30, 1, 1", e.Now(), e.Fired(), e.Pending())
	}
	if next, _ := e.nextTime(); next != 50 {
		t.Fatalf("next event at %v, want the reservation at 50", next)
	}
	e.RunUntil(60)
	if e.Now() != 60 || e.Fired() != 2 || e.Pending() != 0 {
		t.Fatalf("RunUntil(60): now %v fired %d pending %d, want 60, 2, 0", e.Now(), e.Fired(), e.Pending())
	}

	e = setup()
	e.runEvents(40, maxTime)
	if e.Now() != 10 || e.Fired() != 1 {
		t.Fatalf("window to 40: now %v fired %d, want 10, 1", e.Now(), e.Fired())
	}
	e.runEvents(60, maxTime)
	if e.Now() != 50 || e.Fired() != 2 {
		t.Fatalf("window to 60: now %v fired %d, want 50, 2", e.Now(), e.Fired())
	}
	e.AlignTo(70) // nothing pending before 70: no panic
}

// FireAhead runs a handler at its reserved key: the clock and Passed read
// the key, what it schedules carries the key's stamp, and the
// reservation counts when the run reaches it.
func TestFireAhead(t *testing.T) {
	defer SetStepwise(SetStepwise(false))
	e := NewEngine()
	var order []string
	var inside Time
	var early, later Key
	e.At(0, func() { early = e.Reserve(20) })
	e.At(0, func() { later = e.Reserve(40) })
	e.At(10, func() {
		if !e.CanFireAhead(30) {
			t.Error("CanFireAhead(30) false in an unbounded run")
		}
		k := e.Reserve(30)
		e.At(35, func() { order = append(order, "stamped 10") })
		e.FireAhead(k, handlerFunc(func(eng *Engine, _ EventArg) {
			inside = eng.Now()
			if !eng.Passed(early) || eng.Passed(later) {
				t.Error("Passed does not read the fired-ahead key")
			}
			if eng.CanFireAhead(31) {
				t.Error("nested fire-ahead allowed")
			}
			eng.At(35, func() { order = append(order, "stamped 30") })
		}), EventArg{})
		if e.Now() != 10 || e.Passed(early) {
			t.Error("clock or position not restored after FireAhead")
		}
	})
	e.Run()
	if inside != 30 {
		t.Fatalf("clock inside FireAhead %v, want 30", inside)
	}
	if want := []string{"stamped 10", "stamped 30"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if e.Fired() != 8 || e.Queued() != 5 || e.Now() != 40 {
		t.Fatalf("Fired %d Queued %d now %v, want 8, 5, 40", e.Fired(), e.Queued(), e.Now())
	}
}

// Nothing fires ahead to or past a timeline cut, or under Step, or on
// the stepwise oracle.
func TestCanFireAheadStopsAtCuts(t *testing.T) {
	defer SetStepwise(SetStepwise(false))
	par, err := NewParallel([]*Engine{NewEngine()}, [][]*Mailbox{nil}, [][]Time{{0}})
	if err != nil {
		t.Fatal(err)
	}
	e := par.engs[0]
	var got []bool
	probe := func() {
		got = append(got, e.CanFireAhead(99), e.CanFireAhead(100))
	}
	par.SetSampleHook(100, func(Time) {})
	e.At(50, probe)
	e.At(120, func() { got = append(got, e.CanFireAhead(150), e.CanFireAhead(160)) })
	par.RunUntil(160)
	if want := []bool{true, false, true, false}; !slices.Equal(got, want) {
		t.Fatalf("CanFireAhead = %v, want %v", got, want)
	}

	e2 := NewEngine()
	var stepped, oracle bool
	e2.At(1, func() { stepped = e2.CanFireAhead(2) })
	e2.Step()
	prev := SetStepwise(true)
	e2.At(3, func() { oracle = e2.CanFireAhead(4) })
	e2.Run()
	SetStepwise(prev)
	if stepped || oracle {
		t.Fatalf("CanFireAhead under Step %v, under the oracle %v; want false", stepped, oracle)
	}
}
