//go:build stepwise

package sim

// stepwiseDefault: the stepwise build tag runs every test on the oracle
// path (see SetStepwise).
const stepwiseDefault = true
