package sim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// recorder logs (time, tag) pairs as events fire; used to compare the
// ladder queue against the sorted-slice reference event-for-event.
type recorder struct {
	log []firedAt
}

type firedAt struct {
	at  Time
	tag int64
}

func (r *recorder) OnEvent(e *Engine, arg EventArg) {
	r.log = append(r.log, firedAt{at: e.Now(), tag: arg.I})
}

// refEvent is one event in refEngine's queue: the engine's full
// ordering key plus the callback to fire.
type refEvent struct {
	at, sat Time
	pri     uint64
	seq     uint64
	fire    func()
}

func (a refEvent) before(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sat != b.sat {
		return a.sat < b.sat
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// refEngine is the ordering reference for the ladder queue: a plain
// slice kept sorted by (at, sat, pri, seq), with the engine's stamp and
// lineage-priority rules — sat is the clock at the schedule call, pri
// is inherited inside a handler and a fresh root draw outside one. It
// implements the contract the retired container/heap queue did, which
// is what the tests below still name it after.
type refEngine struct {
	now    Time
	seq    uint64
	root   uint64
	cur    uint64
	firing bool
	q      []refEvent
}

func (r *refEngine) push(ev refEvent) {
	i := sort.Search(len(r.q), func(i int) bool { return ev.before(r.q[i]) })
	r.q = slices.Insert(r.q, i, ev)
}

func (r *refEngine) schedule(at Time, fire func()) {
	pri := r.cur
	if !r.firing {
		r.root++
		pri = r.root
	}
	r.seq++
	r.push(refEvent{at: at, sat: r.now, pri: pri, seq: r.seq, fire: fire})
}

func (r *refEngine) run() {
	for len(r.q) > 0 {
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		r.cur, r.firing = ev.pri, true
		ev.fire()
		r.firing = false
	}
}

// Property: for any batch of events with arbitrary (at, sat, pri) keys,
// the ladder queue fires them in exactly the reference order. Keys are
// injected through scheduleKeyed — the parallel executor's mailbox
// path — so ties on every key component are exercised, not only the
// (at, seq) ties local scheduling produces.
func TestLadderMatchesLegacyOrderingProperty(t *testing.T) {
	// Small key domains make ties on every component common; the time
	// scale spreads events within a bucket, across buckets and past the
	// near window into the far heap.
	scales := [...]Time{Picosecond, 600 * Picosecond, 3 * Microsecond}
	type key struct{ At, Scale, Sat, Pri uint8 }
	f := func(keys []key) bool {
		e, rec := NewEngine(), &recorder{}
		var ref refEngine
		var want []firedAt
		for i, k := range keys {
			ev := refEvent{
				at:  Time(k.At%16) * scales[k.Scale%3],
				sat: Time(k.Sat % 4),
				pri: uint64(k.Pri % 4),
				seq: uint64(i + 1),
			}
			tag := int64(i)
			ev.fire = func() { want = append(want, firedAt{at: ref.now, tag: tag}) }
			ref.push(ev)
			e.scheduleKeyed(ev.at, ev.sat, ev.pri, rec, EventArg{I: tag})
		}
		e.Run()
		ref.run()
		return slices.Equal(rec.log, want) && e.Now() == ref.now &&
			e.Fired() == uint64(len(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// runChainWorkload runs a workload shaped like the simulator's own
// traffic — eight self-rescheduling chains of mostly near-future events
// with the odd far-future jump and spawned sibling — through now and
// after, and logs every firing. The same seed drives it on the engine
// and on the reference.
func runChainWorkload(now func() Time, after func(Time, func()), run func()) []firedAt {
	var log []firedAt
	r := NewRand(1234)
	var tick func(id, step int64, budget *int)
	tick = func(id, step int64, budget *int) {
		log = append(log, firedAt{at: now(), tag: id<<32 | step})
		if *budget <= 0 {
			return
		}
		*budget--
		gap := Time(r.Intn(2000)) * Picosecond
		if r.Intn(50) == 0 {
			gap += 3 * Microsecond // jump past the near window
		}
		after(gap, func() { tick(id, step+1, budget) })
		if r.Intn(20) == 0 && *budget > 0 {
			*budget--
			none := 0
			after(gap/2, func() { tick(id+1000, 0, &none) })
		}
	}
	for i := int64(0); i < 8; i++ {
		budget := 500
		after(Time(i)*Nanosecond, func() { tick(i, 0, &budget) })
	}
	run()
	return log
}

func TestLadderMatchesLegacyOnChainedWorkload(t *testing.T) {
	e := NewEngine()
	got := runChainWorkload(e.Now, e.After, e.Run)
	var ref refEngine
	want := runChainWorkload(func() Time { return ref.now },
		func(d Time, fn func()) { ref.schedule(ref.now+d, fn) }, ref.run)
	if len(got) == 0 {
		t.Fatal("workload fired no events")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ladder and reference diverged: %d vs %d events", len(got), len(want))
	}
}

// The ladder must re-anchor its window when the queue drains and the
// next event lands far in the future.
func TestLadderReanchorsAfterDrain(t *testing.T) {
	e := NewEngine()
	var got []Time
	fn := func() { got = append(got, e.Now()) }
	e.At(10*Nanosecond, fn)
	e.Run()
	e.At(5*Second, fn) // far beyond any near window from t=10ns
	e.At(5*Second+100*Picosecond, fn)
	e.Run()
	want := []Time{10 * Nanosecond, 5 * Second, 5*Second + 100*Picosecond}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// Events scheduled for "now" after the cursor has advanced past their
// bucket boundary must still fire before everything later.
func TestLadderSchedulesAtNowAfterCursorAdvance(t *testing.T) {
	e := NewEngine()
	var got []int
	// First event fires mid-window, then schedules a same-time follow-up
	// and a slightly later one; a far event is already pending.
	e.At(700*Picosecond, func() {
		e.At(e.Now(), func() { got = append(got, 1) })
		e.At(e.Now()+1*Picosecond, func() { got = append(got, 2) })
	})
	e.At(10*Microsecond, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

func TestTypedScheduleDeliversArg(t *testing.T) {
	e := NewEngine()
	rec := &recorder{}
	type payload struct{ v int }
	p := &payload{v: 7}
	var gotPtr any
	e.Schedule(5*Nanosecond, handlerFunc(func(eng *Engine, arg EventArg) {
		gotPtr = arg.Ptr
		rec.log = append(rec.log, firedAt{at: eng.Now(), tag: arg.I})
	}), EventArg{Ptr: p, I: 42})
	e.Run()
	if len(rec.log) != 1 || rec.log[0].at != 5*Nanosecond || rec.log[0].tag != 42 {
		t.Fatalf("typed event log = %v", rec.log)
	}
	if gotPtr != p {
		t.Fatalf("arg.Ptr = %v, want %v", gotPtr, p)
	}
}

// handlerFunc lets tests write inline handlers.
type handlerFunc func(e *Engine, arg EventArg)

func (f handlerFunc) OnEvent(e *Engine, arg EventArg) { f(e, arg) }

func TestScheduleAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative ScheduleAfter did not panic")
		}
	}()
	e.ScheduleAfter(-1, handlerFunc(func(*Engine, EventArg) {}), EventArg{})
}

// An armed probe whose wake time falls between the last event and the
// RunUntil deadline must fire on the final clock jump — at its exact
// wake time, not at the deadline the fast-forward lands on.
func TestRunUntilFiresProbeOnFinalClockJump(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.SetProbe(func(now Time) Time {
		wakes = append(wakes, now)
		return now + 100*Nanosecond
	}, 50*Nanosecond)
	e.At(10*Nanosecond, func() {})
	e.RunUntil(80 * Nanosecond)
	// The 10ns event is before the 50ns wake; the jump to the 80ns
	// deadline crosses the wake, which fires exactly at 50ns.
	if len(wakes) != 1 || wakes[0] != 50*Nanosecond {
		t.Fatalf("wakes after first RunUntil = %v, want [50ns]", wakes)
	}
	if e.Now() != 80*Nanosecond {
		t.Fatalf("Now() = %v, want 80ns", e.Now())
	}
	// Probe re-armed at 150ns: an event-free run to 200ns fires it
	// at 150ns on the deadline jump.
	e.RunUntil(200 * Nanosecond)
	if len(wakes) != 2 || wakes[1] != 150*Nanosecond {
		t.Fatalf("wakes after second RunUntil = %v, want [50ns 150ns]", wakes)
	}
	if e.Now() != 200*Nanosecond {
		t.Fatalf("Now() = %v, want 200ns", e.Now())
	}
}

func TestRunUntilProbeDisarmOnFinalJump(t *testing.T) {
	e := NewEngine()
	calls := 0
	e.SetProbe(func(now Time) Time {
		calls++
		return 0 // disarm
	}, 50*Nanosecond)
	e.RunUntil(100 * Nanosecond)
	e.RunUntil(300 * Nanosecond)
	if calls != 1 {
		t.Fatalf("disarmed probe fired %d times, want 1", calls)
	}
}
