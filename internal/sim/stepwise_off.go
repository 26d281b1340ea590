//go:build !stepwise

package sim

// stepwiseDefault: deferred and fired-ahead events are on by default.
const stepwiseDefault = false
