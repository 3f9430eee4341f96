//go:build !race

package stencilsched

const raceEnabled = false
