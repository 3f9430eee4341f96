//go:build race

package stencilsched

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so heap-allocation budgets do not hold under it.
const raceEnabled = true
