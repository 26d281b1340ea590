package tccluster_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	tccluster "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	topo, err := tccluster.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, r, err := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.Recv(func(d []byte, err error) {
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = d
	})
	s.Send([]byte("public api"), func(err error) {
		if err != nil {
			t.Errorf("send: %v", err)
		}
	})
	c.Run()
	if string(got) != "public api" {
		t.Errorf("got %q", got)
	}
	if c.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}

func TestPublicAPIMPIAndPGAS(t *testing.T) {
	topo, err := tccluster.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]float64, 3)
	for rk := 0; rk < 3; rk++ {
		rk := rk
		w.Rank(rk).Allreduce([]float64{float64(rk + 1)}, tccluster.Sum, func(v []float64, err error) {
			if err != nil {
				t.Errorf("allreduce: %v", err)
			}
			results[rk] = v
		})
	}
	c.Run()
	for rk := 0; rk < 3; rk++ {
		if len(results[rk]) != 1 || results[rk][0] != 6 {
			t.Errorf("rank %d allreduce = %v", rk, results[rk])
		}
	}

	sp, err := c.NewSpace(tccluster.DefaultPGASConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp.PutStrict(0, sp.Size()-8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
	})
	c.Run()
	var got []byte
	sp.Get(2, sp.Size()-8, 8, func(d []byte, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		got = d
	})
	c.Run()
	if len(got) != 8 || got[0] != 1 {
		t.Errorf("pgas got %v", got)
	}
}

func TestLiveChannel(t *testing.T) {
	s, r, err := tccluster.NewLiveChannel(tccluster.DefaultLiveParams())
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 100)
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, s.MaxMessage())
		n, err := r.Recv(buf)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		done <- append([]byte(nil), buf[:n]...)
	}()
	if err := s.Send(want); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !bytes.Equal(got, want) {
		t.Error("live channel corrupted payload")
	}
}

// Example demonstrates the quickstart from the package documentation.
func Example() {
	topo, _ := tccluster.Chain(2)
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	if err != nil {
		panic(err)
	}
	s, r, _ := c.OpenChannel(0, 1, tccluster.DefaultMsgParams())
	r.Recv(func(data []byte, err error) { fmt.Printf("%s\n", data) })
	s.Send([]byte("hello over the host interface"), func(error) {})
	c.Run()
	// Output: hello over the host interface
}

// TestCloseStopsParallelWorkers pins the executor's lifecycle: every
// run WithParallel cluster parks worker goroutines between runs, and
// Close must retire them — idempotently, and harmlessly on a cluster
// that never ran — so building many clusters leaks nothing.
func TestCloseStopsParallelWorkers(t *testing.T) {
	topo, err := tccluster.Chain(4)
	mustOK(t, err)
	idle, err := tccluster.New(topo, tccluster.DefaultConfig(), tccluster.WithParallel(2))
	mustOK(t, err)
	mustOK(t, idle.Close())
	mustOK(t, idle.Close())

	start := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c, err := tccluster.New(topo, tccluster.DefaultConfig(), tccluster.WithParallel(2))
		mustOK(t, err)
		if c.Partitions() != 2 {
			t.Fatalf("cluster runs %d partitions, want 2", c.Partitions())
		}
		base := c.Node(3).MemBase() + 8<<20
		c.Node(0).Core().StoreBlock(base, make([]byte, 64), func(err error) { mustOK(t, err) })
		c.Run()
		mustOK(t, c.Close())
		mustOK(t, c.Close())
	}
	// Close waits for its workers, but goroutines other tests left
	// behind may still be winding down: allow them a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines after closing 20 parallel clusters, want %d", n, start)
	}
}
