package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// cutRecorder is one local event of a timeline-cut case. It records how
// many sample boundaries and actions had fired when it ran; the
// coordinator writes those counts only in serial sections, so a worker
// may read them inside its window.
type cutRecorder struct {
	samples, actions *[]Time
	partSeen         []cutSeen // this engine's records
}

type cutSeen struct {
	at               Time
	samples, actions int
}

func (r *cutRecorder) OnEvent(e *Engine, _ EventArg) {
	r.partSeen = append(r.partSeen, cutSeen{e.Now(), len(*r.samples), len(*r.actions)})
}

// cutStep is one run call of a case and what it must produce: the
// sample boundaries it fires, the events it executes and the clock it
// leaves behind.
type cutStep struct {
	until   Time // RunUntil deadline; 0 runs to quiescence (Run)
	samples []Time
	fired   int
	now     Time
}

// boundaries lists from, from+step, ... up to and including to.
func boundaries(from, to, step Time) []Time {
	var out []Time
	for t := from; t <= to; t += step {
		out = append(out, t)
	}
	return out
}

// TestExecutorTimelineCuts pins the executor's cut contract at one and
// two partitions: every sample boundary fires with an exact stamp,
// across idle gaps too; a sample sees the state before any event at its
// boundary and fires before an action at the same instant; an action
// sees every event before it and none at it; Run fires no sample once
// nothing is pending, while RunUntil fires every boundary up to its
// deadline. The events are local, spread round-robin over partitions.
func TestExecutorTimelineCuts(t *testing.T) {
	ns, us := Nanosecond, Microsecond
	cases := []struct {
		name    string
		every   Time
		events  []Time
		actions []Time
		steps   []cutStep
	}{
		{
			// Boundaries inside a busy stretch fire between the events
			// around them; the run ends at the last event.
			name: "wake-semantics", every: 100 * ns,
			events: []Time{40 * ns, 80 * ns, 120 * ns, 130 * ns, 250 * ns},
			steps:  []cutStep{{samples: []Time{100 * ns, 200 * ns}, fired: 5, now: 250 * ns}},
		},
		{
			// An empty queue fast-forwarded across 8ms fires all 800
			// boundaries, each at its own instant.
			name: "fast-forward-every-boundary", every: 10 * us,
			steps: []cutStep{{until: 8 * Millisecond, samples: boundaries(10*us, 8*Millisecond, 10*us), now: 8 * Millisecond}},
		},
		{
			// A boundary between the last event and the deadline fires
			// at its own time on the final clock jump, not at the
			// deadline; an event-free run keeps sampling.
			name: "final-clock-jump", every: 50 * ns,
			events: []Time{10 * ns},
			steps: []cutStep{
				{until: 80 * ns, samples: []Time{50 * ns}, fired: 1, now: 80 * ns},
				{until: 200 * ns, samples: []Time{100 * ns, 150 * ns, 200 * ns}, now: 200 * ns},
			},
		},
		{
			// An event past the deadline stays pending across the jump
			// and runs, after the boundaries before it, on the next run.
			name: "event-beyond-deadline-stays-pending", every: 5 * us,
			events: []Time{55 * us},
			steps: []cutStep{
				{until: 10 * us, samples: []Time{5 * us, 10 * us}, now: 10 * us},
				{samples: boundaries(15*us, 55*us, 5*us), fired: 1, now: 55 * us},
			},
		},
		{
			// An action on an idle fabric is work: Run samples up to it,
			// fires it, and stops; the next bounded run resumes sampling.
			name: "action-crosses-boundaries", every: 20 * us,
			actions: []Time{70 * us},
			steps: []cutStep{
				{samples: []Time{20 * us, 40 * us, 60 * us}, now: 70 * us},
				{until: 90 * us, samples: []Time{80 * us}, now: 90 * us},
			},
		},
		{
			// Sample, action and event share one instant: the sample
			// fires first, then the action, then the event.
			name: "sample-action-event-same-instant", every: 100 * ns,
			events:  []Time{100 * ns, 100 * ns, 150 * ns},
			actions: []Time{100 * ns},
			steps:   []cutStep{{samples: []Time{100 * ns}, fired: 3, now: 150 * ns}},
		},
		{
			// Run stops sampling with the last event; RunUntil then
			// fires every boundary up to its deadline.
			name: "run-idle-then-runfor", every: 30 * ns,
			events: []Time{10 * ns},
			steps: []cutStep{
				{fired: 1, now: 10 * ns},
				{until: 110 * ns, samples: []Time{30 * ns, 60 * ns, 90 * ns}, now: 110 * ns},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, parts := range []int{1, 2} {
				t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
					engs := make([]*Engine, parts)
					for i := range engs {
						engs[i] = NewEngine()
					}
					var samples, actions []Time
					recs := make([]*cutRecorder, parts)
					for i := range recs {
						recs[i] = &cutRecorder{samples: &samples, actions: &actions}
					}
					for i, at := range tc.events {
						engs[i%parts].Schedule(at, recs[i%parts], EventArg{})
					}
					p, err := NewParallel(engs, make([][]*Mailbox, parts), uniform(parts, 10*Nanosecond))
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					pending := append([]Time(nil), tc.actions...)
					p.SetActionHook(func() (Time, bool) {
						if len(pending) == 0 {
							return 0, false
						}
						return pending[0], true
					}, func(now Time) {
						for len(pending) > 0 && pending[0] <= now {
							pending = pending[1:]
							actions = append(actions, now)
							// Every boundary up to and including the
							// action's instant has already fired (the
							// hook is installed at time zero).
							if want := int(now / tc.every); len(samples) != want {
								t.Errorf("action at %v saw %d samples, want %d", now, len(samples), want)
							}
						}
					})
					p.SetSampleHook(tc.every, func(now Time) { samples = append(samples, now) })

					var wantSamples []Time
					fired := uint64(0)
					for si, st := range tc.steps {
						if st.until == 0 {
							p.Run()
						} else {
							p.RunUntil(st.until)
						}
						wantSamples = append(wantSamples, st.samples...)
						fired += uint64(st.fired)
						if !reflect.DeepEqual(samples, wantSamples) {
							t.Fatalf("step %d: samples %v, want %v", si, samples, wantSamples)
						}
						if p.Fired() != fired {
							t.Fatalf("step %d: %d events fired, want %d", si, p.Fired(), fired)
						}
						for _, e := range engs {
							if e.Now() != st.now {
								t.Fatalf("step %d: partition clock %v, want %v", si, e.Now(), st.now)
							}
						}
					}
					if len(actions) != len(tc.actions) {
						t.Fatalf("fired actions %v, want %v", actions, tc.actions)
					}
					// Every event saw exactly the cuts at or before its
					// own instant: samples and actions at its timestamp
					// fire first.
					for _, r := range recs {
						for _, s := range r.partSeen {
							ws, wa := 0, 0
							for _, at := range samples {
								if at <= s.at {
									ws++
								}
							}
							for _, at := range actions {
								if at <= s.at {
									wa++
								}
							}
							if s.samples != ws || s.actions != wa {
								t.Fatalf("event at %v saw %d samples and %d actions, want %d and %d",
									s.at, s.samples, s.actions, ws, wa)
							}
						}
					}
				})
			}
		})
	}
}
