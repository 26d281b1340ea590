package fault_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// cutLog records the timeline cuts a run fires, in firing order: the
// injector's link-state transitions and the sample boundaries. Both
// fire in the executor's serial section, so one slice holds them.
type cutLog struct{ lines []string }

func (l *cutLog) Emit(e trace.Event) {
	if e.Kind == trace.KindLinkState {
		l.lines = append(l.lines, fmt.Sprintf("%d link%d %s", int64(e.At), e.Link, e.Label))
	}
}

// campaignRun is everything a campaign run must reproduce at every
// partition count.
type campaignRun struct {
	cuts   []string
	boot   sim.Time
	events uint64
	now    sim.Time
	digest uint64
}

// runCampaign boots a 4-node chain on parts partitions, streams stores
// from every node into its right neighbor's memory, installs the
// campaign built from the boot-end time (and, with every > 0, a sample
// hook that logs each boundary), and runs to quiescence.
func runCampaign(t *testing.T, parts int, every sim.Time, campaign func(boot sim.Time) *fault.Campaign) campaignRun {
	t.Helper()
	topo, err := topology.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Parallel = parts
	log := &cutLog{}
	cfg.Tracer = log
	c, err := core.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	boot := c.Now()
	inj, err := fault.NewInjector(c, campaign(boot))
	if err != nil {
		t.Fatal(err)
	}
	c.SetActionSource(inj)
	if every > 0 {
		c.SetSampleHook(every, func(now sim.Time) {
			log.lines = append(log.lines, fmt.Sprintf("%d sample", int64(now)))
		})
	}
	for i := 0; i < c.N(); i++ {
		dst := c.Node((i + 1) % c.N())
		c.Node(i).Core().StoreBlock(dst.MemBase()+8<<20, make([]byte, 4096), func(error) {})
	}
	c.RunFor(20 * sim.Microsecond)
	c.Run()
	return campaignRun{cuts: log.lines, boot: boot, events: c.EventsFired(), now: c.Now(), digest: c.CountersDigest()}
}

// TestCampaignOrdering pins the injector's place on the timeline at one
// and two partitions: same-instant actions apply in campaign order,
// actions written before boot end apply at the first instant after it,
// and an action on a sample boundary fires after that sample. Both
// partition counts must give the same cut log and fingerprint.
func TestCampaignOrdering(t *testing.T) {
	const at = 3 * sim.Microsecond
	cases := []struct {
		name     string
		every    sim.Time
		campaign func(boot sim.Time) *fault.Campaign
		want     func(boot sim.Time) []string
	}{
		{
			name: "same-instant-campaign-order",
			campaign: func(boot sim.Time) *fault.Campaign {
				return fault.NewCampaign(
					fault.LinkDown(2, boot+at),
					fault.LinkDegrade(0, boot+at, 0, 0.25),
					fault.LinkDownFor(1, boot+at, 0),
				)
			},
			want: func(boot sim.Time) []string {
				t := int64(boot + at)
				return []string{
					fmt.Sprintf("%d link2 dead", t),
					fmt.Sprintf("%d link0 degraded", t),
					fmt.Sprintf("%d link1 dead", t),
				}
			},
		},
		{
			name: "pre-boot-deferred",
			campaign: func(sim.Time) *fault.Campaign {
				return fault.NewCampaign(fault.LinkDown(1, 0), fault.LinkDegrade(2, sim.Nanosecond, 0, 0.25))
			},
			want: func(boot sim.Time) []string {
				t := int64(boot + 1)
				return []string{fmt.Sprintf("%d link1 dead", t), fmt.Sprintf("%d link2 degraded", t)}
			},
		},
		{
			name:  "action-after-sample-on-boundary",
			every: sim.Microsecond,
			campaign: func(boot sim.Time) *fault.Campaign {
				return fault.NewCampaign(fault.LinkDown(1, boot+at))
			},
			want: func(boot sim.Time) []string {
				var out []string
				for k := sim.Time(1); k <= 3; k++ {
					out = append(out, fmt.Sprintf("%d sample", int64(boot+k*sim.Microsecond)))
				}
				return append(out, fmt.Sprintf("%d link1 dead", int64(boot+at)))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runCampaign(t, 1, tc.every, tc.campaign)
			want := tc.want(serial.boot)
			if got := serial.cuts; len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
				t.Fatalf("cut log starts %v, want %v", got, want)
			}
			if par := runCampaign(t, 2, tc.every, tc.campaign); !reflect.DeepEqual(par, serial) {
				t.Fatalf("2 partitions diverged from 1:\n1: %+v\n2: %+v", serial, par)
			}
		})
	}
}
