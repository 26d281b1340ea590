package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	tccluster "repro"
)

// tinySizes shrinks every workload to smoke-test scale.
var tinySizes = sizes{
	ServeNodes:      4,
	RequestsPerNode: 50,
	Rounds:          200,
	TorusW:          4,
	TorusH:          4,
	Workers:         2,
	AllreduceSetups: 2,
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Step", "repro.(*Cluster).Run", "main.main"}, "sim"},
		{[]string{"runtime.memmove", "repro/internal/nb.(*Northbridge).OnEvent"}, "nb"},
		{[]string{"runtime.mapaccess2", "repro/internal/ht.(*Port).Send.func1"}, "ht"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/msg.(*Sender).Send"}, "runtime"},
		{[]string{"runtime.growslice", "repro/internal/cpu.(*Core).Store"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, "runtime"},
		{[]string{"runtime.chanrecv", "repro/internal/sim.(*Parallel).worker"}, "sim"},
		{[]string{"repro/internal/firmware.(*Machine).Boot"}, "firmware"},
		{[]string{"repro/internal/topology.Torus"}, "topology"},
		{[]string{"repro/internal/kernel.Install"}, "kernel"},
		{[]string{"repro/internal/core.(*Cluster).RunFor"}, "core"},
		{[]string{"repro/internal/serve.(*node).onRequest"}, "serve"},
		{[]string{"repro/internal/prof.(*Hist).Observe"}, "prof"},
		{[]string{"repro/internal/trace.(*Collector).Emit"}, "other"},
		{[]string{"main.(*pingpong).onPong", "repro/internal/msg.(*Receiver).deliver"}, "other"},
		{[]string{"repro.New"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, l := range layers {
		if !seen[l+".host_pct"] || !seen[l+".setup_pct"] {
			t.Errorf("layer %s lacks its host/setup share", l)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the program has %d", names, len(workloads))
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestCheckServe(t *testing.T) {
	good := tccluster.ServeReport{Requests: 100, Completed: 97, Shed: 2, Unroutable: 1}
	if err := checkServe(good); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *tccluster.ServeReport){
		"lost request": func(r *tccluster.ServeReport) { r.Requests++ },
		"bad frame":    func(r *tccluster.ServeReport) { r.Bad = 1 },
		"timeout":      func(r *tccluster.ServeReport) { r.Completed--; r.Timeouts++ },
		"no requests":  func(r *tccluster.ServeReport) { *r = tccluster.ServeReport{} },
	} {
		r := good
		corrupt(&r)
		if checkServe(r) == nil {
			t.Errorf("%s: corrupted report accepted", name)
		}
	}
}

func TestCheckPingpong(t *testing.T) {
	if err := checkPingpong(10, 10, 0, 0); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	if checkPingpong(10, 9, 0, 0) == nil {
		t.Error("missing round accepted")
	}
	if checkPingpong(10, 10, 1, 0) == nil {
		t.Error("corrupted echo accepted")
	}
	if checkPingpong(10, 10, 0, 1) == nil {
		t.Error("failed send accepted")
	}
}

// TestAllreduceRejectsFlippedByte corrupts one byte of one rank's result
// after a real run and expects the check to catch it.
func TestAllreduceRejectsFlippedByte(t *testing.T) {
	inst, err := setupAllreduce(tinySizes, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	ar := inst.(*allreduce)
	ar.prepare()
	ar.run()
	if _, err := ar.result(); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	accs := make([][8]uint64, len(ar.ranks))
	for i, r := range ar.ranks {
		accs[i] = r.acc
	}
	if err := checkAllreduce(accs, ar.want); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	accs[5][3] ^= 1 << 16 // one bit of one byte
	if checkAllreduce(accs, ar.want) == nil {
		t.Error("flipped byte accepted")
	}
}

// TestSmoke runs every workload at tiny scale through the untraced,
// traced and counting passes, which check each other's fingerprints.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := traceRun(w, tinySizes, 3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for _, d := range perLayer {
				if _, ok := out.metrics[d.Name]; !ok {
					t.Errorf("metric %s missing", d.Name)
				}
			}
			var host float64
			for _, l := range layers {
				host += out.metrics[l+".host_pct"]
			}
			if math.Abs(host-100) > 1e-6 {
				t.Errorf("host shares sum to %v%%", host)
			}
			if got := out.metrics["core.windows"] > 0; got != w.reuse {
				t.Errorf("core.windows = %v on %s", out.metrics["core.windows"], w.name)
			}

			e2e, err := endToEndRun(w, tinySizes, 3, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if v := e2e.metrics[d.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

// TestAllreduceSerialMatchesParallel checks that the per-node engines the
// ranks schedule on keep the parallel run identical to the serial one.
func TestAllreduceSerialMatchesParallel(t *testing.T) {
	w, err := findWorkload("allreduce-torus256")
	if err != nil {
		t.Fatal(err)
	}
	fp := func(workers int) fingerprint {
		sz := tinySizes
		sz.Workers, sz.AllreduceSetups = workers, 1
		rec, err := runPass(w, sz, 11, passOpts{reps: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rec.passFP
	}
	serial, parallel := fp(1), fp(2)
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if !bytes.Equal(sj, pj) {
		t.Errorf("parallel run %s differs from serial %s", pj, sj)
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = splitmix64(x)
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	setPhase("run")
	burn(300 * time.Millisecond)
	setPhase(driverPhase)
	burn(100 * time.Millisecond)
	setPhase("")
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var run, driver int64
	for _, s := range samples {
		if len(s.stack) == 0 || !strings.HasSuffix(s.stack[0], ".burn") && !strings.Contains(strings.Join(s.stack, " "), ".burn") {
			continue
		}
		switch s.phase {
		case "run":
			run += s.count
		case driverPhase:
			driver += s.count
		}
	}
	if run < 20 || driver < 5 {
		t.Errorf("decoded %d run-phase and %d driver-phase samples of burn", run, driver)
	}
	shares, n, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if n == 0 || math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares over %d samples sum to %v", n, sum)
	}
}
