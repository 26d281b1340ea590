package tccluster_test

import (
	"testing"

	tccluster "repro"
	"repro/internal/sim"
)

// serveRequestsPerNode is perfbench's serve-chain16 load; -race runs a
// tenth of it.
func serveRequestsPerNode() int {
	if raceEnabled {
		return 300
	}
	return 3000
}

// serveChain16 runs perfbench's serve-chain16 shape — the KV service on
// a 16-node chain, 3000 open-loop requests per node, seed 1 — and
// returns the events fired and queued, the final virtual time, the
// counter digest and the service checksum.
func serveChain16(t *testing.T, stepwise bool) (fired, queued uint64, now tccluster.Time, digest, checksum uint64) {
	t.Helper()
	prev := sim.SetStepwise(stepwise)
	defer sim.SetStepwise(prev)
	topo, err := tccluster.Chain(16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cfg := tccluster.DefaultServeConfig()
	cfg.Keyspace = 1 << 16
	cfg.RequestsPerNode = serveRequestsPerNode()
	cfg.Seed = 1
	svc, err := c.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0, q0 := c.EventsFired(), c.EventsQueued()
	svc.Start()
	c.Run()
	svc.Stop()
	c.Run()
	r := svc.Report()
	if r.Completed != r.Requests {
		t.Fatalf("completed %d of %d requests", r.Completed, r.Requests)
	}
	return c.EventsFired() - f0, c.EventsQueued() - q0, c.Now(), c.CountersDigest(), r.Checksum
}

// Serve on a 16-node chain is dominated by per-hop work. Transit hops
// fired ahead and deferred credit coupons take it from ~154 queued
// events per request to ~99, while the logical event count and every
// simulated outcome stay those of the stepwise run.
func TestServeChain16QueuedEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 96k requests")
	}
	fired, queued, now, digest, sum := serveChain16(t, false)
	sFired, sQueued, sNow, sDigest, sSum := serveChain16(t, true)
	requests := float64(16 * serveRequestsPerNode())
	perReq := float64(queued) / requests
	t.Logf("events/request: %.2f fired, %.2f queued (stepwise %.2f)",
		float64(fired)/requests, perReq, float64(sQueued)/requests)
	if perReq > 105 {
		t.Errorf("%.2f queued events per request, want <= 105", perReq)
	}
	if sQueued != sFired {
		t.Errorf("stepwise oracle queued %d of %d events", sQueued, sFired)
	}
	if fired != sFired || now != sNow || digest != sDigest || sum != sSum {
		t.Errorf("fingerprint (events %d, now %v, digest %x, checksum %x) differs from stepwise (%d, %v, %x, %x)",
			fired, now, digest, sum, sFired, sNow, sDigest, sSum)
	}
}
