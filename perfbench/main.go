// Command perfbench is the repository's benchmark. It runs one named
// workload through the public tccluster API and prints every metric by
// name, a behaviour fingerprint, the run's machine meta, and as its last
// line one JSON result:
//
//	perfbench --workload serve-chain16 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it makes an untraced pass, a traced pass (CPU profile
// plus the simulation profiler) and a counting pass (a tracer counting
// trace events) over the same reps, checks that all three produce the
// same fingerprint, and reports the per-layer metrics. README.md in this
// directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload name: serve-chain16 | pingpong-chain2 | allreduce-torus256")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "host seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	sz := defaultSizes
	sz.Workers = min(sz.Workers, runtime.NumCPU())

	var out *output
	if *traced == 1 {
		out, err = traceRun(w, sz, *seed, *seconds)
	} else {
		out, err = endToEndRun(w, sz, *seed, *seconds)
	}
	if out == nil {
		// The run failed before measuring anything: report it incorrect.
		out = &output{defs: endToEnd}
		if *traced == 1 {
			out.defs = perLayer
		}
	}
	out.meta.Workload, out.meta.Seed, out.meta.Seconds, out.meta.Trace = w.name, *seed, *seconds, *traced
	out.meta.fill()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if perr := out.print(os.Stdout, err == nil); perr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", perr)
		os.Exit(1)
	}
	if err != nil {
		os.Exit(1)
	}
}

// output is everything a run prints.
type output struct {
	metrics   map[string]float64
	defs      []metricDef
	attempted uint64
	failed    uint64
	witness   fingerprint
	meta      meta
}

// meta records the machine and settings a run was measured with.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"` // executor partitions; 1 is the serial engine
	Reps       int     `json:"reps"`
	Setups     int     `json:"setups"`
	SimSamples uint64  `json:"sim_samples"`
	ProfSample int64   `json:"profile_samples,omitempty"`
	// RepOpsPerS is every rep's uncalibrated rate, in run order.
	RepOpsPerS []float64 `json:"rep_ops_per_s,omitempty"`
	// CalPerS is the calibrator's median rate during the run, and the
	// Raw fields the host-time metrics before calibration.
	CalPerS      float64 `json:"cal_events_per_s,omitempty"`
	RawSetupS    float64 `json:"raw_setup_s,omitempty"`
	RawOpsPerS   float64 `json:"raw_ops_per_s,omitempty"`
	RawSimNsPerS float64 `json:"raw_sim_ns_per_s,omitempty"`
}

func (m *meta) fill() {
	m.GoVersion, m.GOOS, m.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	m.NumCPU, m.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *output) print(f *os.File, correct bool) error {
	res := result{Correct: correct, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(o.defs))}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	var b strings.Builder
	for _, d := range o.defs {
		v, ok := o.metrics[d.Name]
		if !ok && correct {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(&b, "%-26s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fp, err := json.Marshal(o.witness)
	if err != nil {
		return err
	}
	mj, err := json.Marshal(o.meta)
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "fingerprint %s\nmeta %s\n%s\n", fp, mj, last)
	_, err = f.WriteString(b.String())
	return err
}

// median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
