package sim

import (
	"fmt"
	"sync/atomic"
)

// Deferred events.
//
// A model sometimes knows, when it would schedule an event, that the
// event's only effect can be applied later — or earlier — without any
// other event being able to tell. The engine lets it skip the queue
// while keeping the timeline exact:
//
//   - Reserve(at) assigns the (at, sat, pri, seq) key Schedule would
//     have, and queues nothing. The key counts as a fired event, and
//     moves the clock, when the run steps past it, so Fired, the final
//     virtual time and every timeline cut read what a stepwise run
//     would have read. Queued counts only the events that went through
//     the queue.
//   - Passed(key) tells the owner whether the key's instant has come, so
//     it can apply the event's effect lazily, at its next touch point.
//   - ScheduleReserved(key, h, arg) queues the event after all, at
//     exactly its key, once the owner sees that applying it lazily would
//     be late.
//   - FireAhead(key, h, arg) runs the event inline at its key with the
//     clock provisionally at its instant, ahead of the events before it.
//     The owner must know that none of them reads or writes anything the
//     handler touches; CanFireAhead refuses when a timeline cut could
//     observe the difference.
//
// Stepwise (the oracle) forces every model back onto plain scheduling.

// Key is an event's position in the engine's total order.
type Key struct {
	at, sat Time
	pri     uint64
	seq     uint64
}

func (k Key) entry() entry { return entry{at: k.at, sat: k.sat, pri: k.pri, seq: k.seq} }

// Reserve returns the key Schedule(at, ...) would assign now, and counts
// a logical event at it that fires when the run steps past the key.
func (e *Engine) Reserve(at Time) Key {
	if at < e.now {
		panic(fmt.Sprintf("sim: event reserved at %v before now %v", at, e.now))
	}
	pri := e.eventPri()
	e.seq++
	if len(e.def) >= e.defCap {
		e.countPassed()
		if e.defCap < 64 || len(e.def) > e.defCap/2 {
			e.defCap = max(64, 2*e.defCap)
		}
	}
	e.def = append(e.def, entry{at: at, sat: e.now, pri: pri, seq: e.seq})
	return Key{at: at, sat: e.now, pri: pri, seq: e.seq}
}

// countPassed counts every reserved key that has passed as a fired
// event and drops it.
func (e *Engine) countPassed() {
	kept := e.def[:0]
	for _, d := range e.def {
		if entryLess(e.cur, d) {
			kept = append(kept, d)
		}
	}
	e.elided += uint64(len(e.def) - len(kept))
	e.def = kept
}

// stepReserved steps past every reserved key at or before limit, once
// no queued event is due by then: each counts as fired, and the clock
// and cur end on the last, where a stepwise run's would. It reports
// whether any key was stepped.
func (e *Engine) stepReserved(limit Time) bool {
	kept := e.def[:0]
	for _, d := range e.def {
		switch {
		case d.at > limit:
			kept = append(kept, d)
		case entryLess(e.cur, d):
			e.now, e.cur = max(e.now, d.at), d
		}
	}
	n := len(e.def) - len(kept)
	e.elided += uint64(n)
	e.def = kept
	return n > 0
}

// Passed reports whether k comes at or before the event now firing —
// between events, whether the run has stepped past it. A key reserved on
// another engine is meaningless here.
func (e *Engine) Passed(k Key) bool {
	c := &e.cur
	if e.ahead {
		c = &e.aheadKey
	}
	switch {
	case k.at != c.at:
		return k.at < c.at
	case k.sat != c.sat:
		return k.sat < c.sat
	case k.pri != c.pri:
		return k.pri < c.pri
	}
	return k.seq <= c.seq
}

// ScheduleReserved queues h to receive arg at exactly the reserved key
// k. The event then fires, and counts, once. Queueing a key that has
// already passed panics: its instant is gone.
func (e *Engine) ScheduleReserved(k Key, h Handler, arg EventArg) {
	if e.Passed(k) {
		panic(fmt.Sprintf("sim: reserved event at %v queued after it passed", k.at))
	}
	for i, d := range e.def {
		if d.seq == k.seq {
			last := len(e.def) - 1
			e.def[i] = e.def[last]
			e.def = e.def[:last]
			break
		}
	}
	e.q.insert(k.at, k.sat, k.pri, k.seq, e.q.alloc(h, arg))
}

// CanFireAhead reports whether an event now firing may fire a reserved
// event at t ahead of its turn: the stepwise oracle is off, no other
// event is firing ahead, and no timeline cut (sample, scripted action or
// run deadline) falls at or before t.
func (e *Engine) CanFireAhead(t Time) bool {
	return e.firing && !e.ahead && t < e.horizon && !stepwise.Load()
}

// FireAhead runs h inline as the event at reserved key k: the clock, the
// lineage priority and Passed read k while it runs, so whatever h
// schedules carries the key it would have carried stepwise (up to seq).
// The count of fired events does not move: the reservation counts when
// the run steps past k. Callers gate on CanFireAhead.
func (e *Engine) FireAhead(k Key, h Handler, arg EventArg) {
	now, pri := e.now, e.curPri
	e.now, e.curPri, e.aheadKey, e.ahead = k.at, k.pri, k.entry(), true
	h.OnEvent(e, arg)
	e.now, e.curPri, e.ahead = now, pri, false
}

// stepwise forces every model onto plain per-event scheduling: no
// reservation is made and nothing fires ahead. It is the oracle the
// deferred paths are tested against; the stepwise build tag turns it on
// for a whole test run.
var stepwise atomic.Bool

func init() { stepwise.Store(stepwiseDefault) }

// SetStepwise turns the stepwise oracle on or off and returns the
// previous setting. Testing only; flip it between runs.
func SetStepwise(on bool) bool { return stepwise.Swap(on) }

// Stepwise reports whether the stepwise oracle is on. Models check it
// before reserving an event they would otherwise queue.
func Stepwise() bool { return stepwise.Load() }
