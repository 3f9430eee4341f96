// Package generated holds schedule runners compiled to Go by the
// internal/schedc schedule compiler. Every *.gen.go file in this package
// is emitted by cmd/schedgen from the declarative What/When/Where
// descriptions in internal/schedc and internal/codegen — edit the
// descriptions (or the compiler) and re-run `go generate ./...`, never
// the emitted files. A test in this package fails when the committed
// files drift from what the compiler emits.
//
// Each schedule structure is emitted once. Tiled runners (RunOT and the
// RunTemporalK* sweeps) take the tile edge E as a trailing argument, with
// E <= 0 meaning one whole-box tile; Entries binds the registered edges
// with bindEdge, so every entry has the same registry signature. The
// series runners (RunSeries, and the unregistered RunSeriesCLI that runs
// the Baseline-CLI variants) split each pass into z slabs over threads;
// every other runner is serial within the box.
package generated

//go:generate go run stencilsched/cmd/schedgen -out .

import (
	"stencilsched/internal/box"
	"stencilsched/internal/fab"
)

// Entry is one compiled schedule runner, under the same contract as a
// conformance-registry runner: phi0 covers the ghosted valid box, and
// the flux divergence accumulates into phi1 over valid, bitwise the same
// for every threads. Only the series runner uses threads (z slabs); the
// others are serial within the box regardless of it.
//
// TemporalK > 0 marks a temporal-blocking runner fusing that many Euler
// steps per sweep, which changes the contract: phi0 must cover valid
// grown by TemporalK*kernel.NGhost and phi1 accumulates the K-step state
// delta (state_K - phi0) instead of the raw flux divergence.
type Entry struct {
	Name      string
	Run       func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error
	TemporalK int
}

// bindEdge binds the tile edge of a tiled runner (E <= 0: one whole-box
// tile), giving the registry signature.
func bindEdge(run func(phi0, phi1 *fab.FAB, valid box.Box, threads, E int) error, E int) func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
	return func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error {
		return run(phi0, phi1, valid, threads, E)
	}
}
