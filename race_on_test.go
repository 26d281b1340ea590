//go:build race

package tccluster_test

// raceEnabled shrinks the long-running workloads under -race, whose
// instrumentation slows the event loop tenfold. They still run, so
// -race covers the same code paths.
const raceEnabled = true
