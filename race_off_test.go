//go:build !race

package tccluster_test

// raceEnabled shrinks the long-running workloads under -race (see
// race_on_test.go).
const raceEnabled = false
