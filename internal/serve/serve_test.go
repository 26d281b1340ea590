package serve

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topology"
)

func rig(t *testing.T, nodes, workers int, actions ...fault.Action) (*core.Cluster, *kernel.OS) {
	t.Helper()
	topo, err := topology.Chain(nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Parallel = workers
	c, err := core.New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) > 0 {
		inj, err := fault.NewInjector(c, fault.NewCampaign(actions...))
		if err != nil {
			t.Fatal(err)
		}
		c.SetActionSource(inj)
	}
	return c, kernel.Install(c, kernel.Options{SMCDisabled: true})
}

func TestRingPlacement(t *testing.T) {
	r1 := newHashRing(8, 64, 3, 42)
	r2 := newHashRing(8, 64, 3, 42)
	if !reflect.DeepEqual(r1.replicas, r2.replicas) {
		t.Fatal("placement not deterministic")
	}
	owned := make([]int, 8)
	for sh, reps := range r1.replicas {
		if len(reps) != 3 {
			t.Fatalf("shard %d has %d replicas, want 3", sh, len(reps))
		}
		seen := map[int]bool{}
		for _, n := range reps {
			if n < 0 || n >= 8 || seen[n] {
				t.Fatalf("shard %d bad replica set %v", sh, reps)
			}
			seen[n] = true
		}
		owned[reps[0]]++
	}
	// Primary ownership must spread: no node should own more than half
	// of all shards with 32 virtual points each.
	for n, c := range owned {
		if c > 32 {
			t.Errorf("node %d owns %d/64 primaries — ring badly skewed", n, c)
		}
	}
	if newHashRing(8, 64, 3, 43).replicas[0][0] == r1.replicas[0][0] &&
		reflect.DeepEqual(newHashRing(8, 64, 3, 43).replicas, r1.replicas) {
		t.Error("different seeds produced identical placement")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		mod   func(*Config)
	}{
		{"one node", 1, func(c *Config) {}},
		{"bad policy", 4, func(c *Config) { c.Policy = "random" }},
		{"value too small", 4, func(c *Config) { c.ValueBytes = 4 }},
		{"value exceeds ring quarter", 4, func(c *Config) { c.ValueBytes = 8192 }},
		{"read fraction", 4, func(c *Config) { c.ReadFraction = 1.5 }},
		{"timeout below slo", 4, func(c *Config) {
			c.Timeout = 10 * sim.Microsecond
			c.SLO = 20 * sim.Microsecond
		}},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mod(&cfg)
		if err := cfg.validate(tc.nodes); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", tc.name, err)
		}
	}
	cfg := Config{}
	if err := cfg.validate(4); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if cfg.Shards != 64 || cfg.Policy != PolicyRoundRobin {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	cfg = Config{ReplicaN: 100}
	if err := cfg.validate(4); err != nil || cfg.ReplicaN != 4 {
		t.Errorf("replicaN not clamped: %d %v", cfg.ReplicaN, err)
	}
}

// smallConfig keeps unit runs fast: 4 nodes x 300 requests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.RequestsPerNode = 300
	cfg.Keyspace = 1 << 12
	cfg.ValueBytes = 64
	cfg.Seed = 7
	return cfg
}

func runServe(t *testing.T, nodes, workers int, cfg Config, actions ...fault.Action) (Report, uint64) {
	t.Helper()
	c, os := rig(t, nodes, workers, actions...)
	s, err := New(os, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c.Run()
	s.Stop()
	c.Run()
	return s.Report(), c.EventsFired()
}

func TestServeEndToEnd(t *testing.T) {
	cfg := smallConfig()
	r, _ := runServe(t, 4, 0, cfg)
	if want := uint64(4 * 300); r.Requests != want {
		t.Fatalf("requests = %d, want %d", r.Requests, want)
	}
	if r.Admitted != r.Requests-r.Shed {
		t.Errorf("admitted %d != requests %d - shed %d", r.Admitted, r.Requests, r.Shed)
	}
	if r.Completed+r.Timeouts+r.Unroutable != r.Admitted {
		t.Errorf("accounting: completed %d + timeouts %d + unroutable %d != admitted %d",
			r.Completed, r.Timeouts, r.Unroutable, r.Admitted)
	}
	if r.Timeouts != 0 || r.Unroutable != 0 || r.Bad != 0 {
		t.Errorf("healthy run lost requests: %+v", r)
	}
	if r.Completed == 0 || r.InSLO == 0 || r.GoodputPct == 0 {
		t.Errorf("no goodput: %+v", r)
	}
	if r.P50PS <= 0 || r.P99PS < r.P50PS || r.P999PS < r.P99PS {
		t.Errorf("quantiles disordered: p50=%v p99=%v p999=%v", r.P50PS, r.P99PS, r.P999PS)
	}
	if r.Checksum == 0 {
		t.Error("zero checksum — no writes applied?")
	}
	if r.Writes > 0 && r.Replicas == 0 {
		t.Error("writes happened but nothing replicated")
	}
	if r.Local == 0 {
		t.Error("no request took the local fast path")
	}
	if len(r.Windows) == 0 {
		t.Error("no goodput windows recorded")
	}
}

func TestServePolicies(t *testing.T) {
	for _, p := range []Policy{PolicyRoundRobin, PolicyLeastLoaded, PolicyAffinity} {
		cfg := smallConfig()
		cfg.Policy = p
		r, _ := runServe(t, 4, 0, cfg)
		if r.Completed != r.Admitted {
			t.Errorf("%s: completed %d of %d admitted", p, r.Completed, r.Admitted)
		}
	}
}

func TestServeAdmissionSheds(t *testing.T) {
	cfg := smallConfig()
	// Arrivals at ~500k/s per node against a 100k/s bucket: most of the
	// stream must shed once the initial burst drains.
	cfg.BucketBurst = 4
	cfg.BucketRate = 100e3
	r, _ := runServe(t, 4, 0, cfg)
	if r.Shed == 0 {
		t.Fatalf("overdriven bucket shed nothing: %+v", r)
	}
	if r.Completed+r.Timeouts+r.Unroutable != r.Admitted {
		t.Errorf("accounting broken under shedding: %+v", r)
	}
}

func TestServeDeterminism(t *testing.T) {
	cfg := smallConfig()
	base, baseEvents := runServe(t, 4, 0, cfg)
	for _, workers := range []int{2, 4} {
		r, events := runServe(t, 4, workers, cfg)
		if events != baseEvents {
			t.Errorf("parallel=%d fired %d events, serial %d", workers, events, baseEvents)
		}
		if !reflect.DeepEqual(r, base) {
			t.Errorf("parallel=%d report diverged:\nserial:   %+v\nparallel: %+v", workers, base, r)
		}
	}
}

func TestServeCrashFailover(t *testing.T) {
	cfg := smallConfig()
	cfg.RequestsPerNode = 600
	crashAt := 400 * sim.Microsecond
	crash := fault.NodeCrash(3, crashAt)

	r, events := runServe(t, 4, 0, cfg, crash)
	if r.Timeouts == 0 {
		t.Fatal("crash produced no timeouts")
	}
	if r.DeadMarks == 0 {
		t.Fatal("no client marked the crashed node dead")
	}
	if r.Failovers == 0 {
		t.Fatal("no request failed over to a replica")
	}
	if r.Completed == 0 || r.InSLO == 0 {
		t.Fatalf("no goodput through the crash: %+v", r)
	}
	// Survivors must keep completing after detection: the tail windows
	// (after the crash) still carry completions.
	tail := r.Windows[len(r.Windows)-1]
	if tail.Completed == 0 && len(r.Windows) >= 2 {
		tail = r.Windows[len(r.Windows)-2]
	}
	if tail.Completed == 0 {
		t.Errorf("no completions in tail windows — failover did not recover: %+v", r.Windows)
	}

	for _, workers := range []int{2, 4} {
		rp, ep := runServe(t, 4, workers, cfg, crash)
		if ep != events {
			t.Errorf("parallel=%d fired %d events, serial %d", workers, ep, events)
		}
		if !reflect.DeepEqual(rp, r) {
			t.Errorf("parallel=%d crash report diverged:\nserial:   %+v\nparallel: %+v", workers, r, rp)
		}
	}
}

func TestServeSnapshot(t *testing.T) {
	cfg := smallConfig()
	c, os := rig(t, 4, 0)
	s, err := New(os, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c.Run()
	s.Stop()
	c.Run()
	sn := s.Snapshot()
	r := s.Report()
	if sn.Requests != r.Requests || sn.Completed != r.Completed ||
		sn.P99PS != r.P99PS || sn.Goodput != r.GoodputPct {
		t.Errorf("snapshot disagrees with report: %+v vs %+v", sn, r)
	}
}

// TestServeTailWithinObservedMax pins the tail estimator: the reported
// p99 and p999 interpolate inside a power-of-two bucket, and must be
// clamped to the slowest request actually completed. On this shape —
// a chain16 whose slowest requests sit just above a bucket's lower
// edge — the unclamped estimate reported a 4.02 us p999 against a
// 2.46 us slowest request.
func TestServeTailWithinObservedMax(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Keyspace = 1 << 16
	cfg.RequestsPerNode = 1000
	cfg.Seed = 1
	c, os := rig(t, 16, 0)
	s, err := New(os, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c.Run()
	s.Stop()
	c.Run()
	var slowest uint64
	for _, ns := range s.nodes {
		slowest = max(slowest, ns.lat.Snapshot().Max)
	}
	r, sn := s.Report(), s.Snapshot()
	if r.Completed == 0 || slowest == 0 {
		t.Fatalf("no completed requests: %+v", r)
	}
	for _, q := range []struct {
		name string
		v    float64
	}{
		{"report p99", r.P99PS}, {"report p999", r.P999PS},
		{"snapshot p99", sn.P99PS}, {"snapshot p999", sn.P999PS},
	} {
		if q.v > float64(slowest) {
			t.Errorf("%s = %.0f ps exceeds the slowest completed request, %d ps", q.name, q.v, slowest)
		}
	}
}
