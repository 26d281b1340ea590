package ht

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// couponRun is what a credit-coupon scenario observably did: it must
// be identical with coupons deferred and on the stepwise oracle.
type couponRun struct {
	deliveries    []sim.Time
	stats         PortStats
	credits       string
	idle          string
	now           sim.Time
	fired, queued uint64
}

// runCouponScenario builds a trained link, lets scenario drive it and
// records the outcome, on the deferred path or the stepwise oracle.
func runCouponScenario(t *testing.T, stepwise bool, cfg LinkConfig, scenario func(eng *sim.Engine, l *Link, log func())) couponRun {
	t.Helper()
	prev := sim.SetStepwise(stepwise)
	defer sim.SetStepwise(prev)
	eng := sim.NewEngine()
	l := trainedLink(t, eng, cfg)
	var r couponRun
	f0, q0 := eng.Fired(), eng.Queued()
	scenario(eng, l, func() { r.deliveries = append(r.deliveries, eng.Now()) })
	eng.Run()
	r.idle = fmt.Sprint(l.A().CheckIdle())
	c := l.A().credits
	r.credits = fmt.Sprint(c.cmd, c.data)
	r.stats = l.A().Stats()
	r.now = eng.Now()
	r.fired, r.queued = eng.Fired()-f0, eng.Queued()-q0
	return r
}

func checkCouponRuns(t *testing.T, fast, step couponRun) {
	t.Helper()
	if !slices.Equal(fast.deliveries, step.deliveries) {
		t.Errorf("deliveries %v, stepwise %v", fast.deliveries, step.deliveries)
	}
	if fast.stats != step.stats || fast.credits != step.credits || fast.idle != step.idle {
		t.Errorf("port state differs:\n deferred %+v %s %s\n stepwise %+v %s %s",
			fast.stats, fast.credits, fast.idle, step.stats, step.credits, step.idle)
	}
	if fast.now != step.now || fast.fired != step.fired {
		t.Errorf("now %v fired %d, stepwise now %v fired %d", fast.now, fast.fired, step.now, step.fired)
	}
	if step.queued != step.fired {
		t.Errorf("stepwise oracle queued %d of %d events", step.queued, step.fired)
	}
	if fast.queued >= step.queued {
		t.Errorf("deferred run queued %d events, stepwise %d: no coupon was deferred", fast.queued, step.queued)
	}
}

// A packet that stalls behind deferred coupons turns them back into
// events at their reserved keys: the echoing sink sends each reply while
// its credits are still on the wire, so every reply waits for exactly
// the coupon its stepwise twin waited for.
func TestStallQueuesDeferredCoupons(t *testing.T) {
	cfg := DefaultLinkConfig(ClassProcessor, ClassIODevice)
	cfg.BBuffers = BufferConfig{
		Cmd:  [NumVCs]int{VCPosted: 2, VCNonPosted: 1, VCResponse: 1},
		Data: [NumVCs]int{VCPosted: 2, VCNonPosted: 1, VCResponse: 1},
	}
	scenario := func(eng *sim.Engine, l *Link, log func()) {
		echoes := 12
		l.B().SetSink(func(p *Packet, done func()) {
			log()
			done()
			if echoes > 0 {
				echoes--
				q, _ := NewPostedWrite(p.Addr+64, make([]byte, 64))
				if err := l.A().Send(q); err != nil {
					t.Error(err)
				}
			}
		})
		for i := 0; i < 3; i++ {
			p, _ := NewPostedWrite(uint64(i)*64, make([]byte, 64))
			if err := l.A().Send(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	fast := runCouponScenario(t, false, cfg, scenario)
	step := runCouponScenario(t, true, cfg, scenario)
	if step.stats.CreditStalls == 0 {
		t.Fatal("scenario never stalled on credits")
	}
	if len(fast.deliveries) != 15 {
		t.Fatalf("delivered %d packets, want 15", len(fast.deliveries))
	}
	checkCouponRuns(t, fast, step)
}

// A retrain while coupons are deferred: coupons that land before
// training completes release into the counters being replaced, and ones
// that land after it top up the fresh counters, as their events did.
func TestRetrainWithDeferredCoupons(t *testing.T) {
	for _, tc := range []struct {
		name  string
		train sim.Time
	}{
		{"coupons-land-after-training", 1 * sim.Microsecond},
		{"coupons-land-during-training", 5 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultLinkConfig(ClassProcessor, ClassIODevice)
			cfg.Flight = 2 * sim.Microsecond
			cfg.TrainTime = tc.train
			scenario := func(eng *sim.Engine, l *Link, log func()) {
				l.B().SetSink(func(p *Packet, done func()) {
					log()
					done()
				})
				for i := 0; i < 3; i++ {
					p, _ := NewPostedWrite(uint64(i)*64, make([]byte, 64))
					if err := l.A().Send(p); err != nil {
						t.Fatal(err)
					}
				}
				// Deliveries land near 2 us and their coupons near 4 us.
				eng.RunUntil(eng.Now() + 5*sim.Microsecond/2)
				l.WarmReset()
			}
			fast := runCouponScenario(t, false, cfg, scenario)
			step := runCouponScenario(t, true, cfg, scenario)
			checkCouponRuns(t, fast, step)
		})
	}
}
