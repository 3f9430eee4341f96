// Package schedc is the schedule compiler: it lowers the serializable
// What/When/Where descriptions of internal/codegen to specialized,
// arena-aware Go source — the reproduction of what the paper's CodeGen+
// tool (Section IV-E) did for the study's variants, closing the gap
// between the interpreted exemplar schedules and the hand-written
// families.
//
// The input is a Family: one or more codegen.ProgramDesc values, each a
// set of statements with polyhedral iteration domains (parametric over
// the valid-box corners, and over the tile edge for tiled programs),
// scatter-form schedules, and storage-mapping buffer descriptions.
// Lowering proceeds exactly as classic polyhedral code generation does:
//
//  1. each statement's domain is translated to its time domain by the
//     schedule's shifts (When);
//  2. statements are grouped recursively by the static positions of
//     their scatter schedules — shared positions fuse statements into
//     one loop nest, distinct positions sequence them;
//  3. every fused loop scans the union of its members' time-domain
//     bounds (Fourier–Motzkin projections via poly.Loops), with
//     per-statement guard conditions only where a member's own bounds
//     are narrower than the union, hoisted to the outermost level where
//     they are decidable;
//  4. statement macros expand to direct flat-offset array accesses
//     (What), and buffer descriptions expand to scratch-arena
//     allocations with full-array, ring (modulo-parity), or tile-local
//     storage mappings (Where).
//
// The emitted code depends only on the same packages the hand-written
// variants use (fab, box, kernel, scratch, and parallel for the runners
// that split their nests into z slabs) and funnels every flux
// through kernel.FaceAvg/kernel.Flux2 with the per-cell x, y, z
// accumulation order, so generated runners are bit-identical to
// kernel.Reference — the same conformance contract every hand-written
// family satisfies.
package schedc

import (
	"fmt"

	"stencilsched/internal/codegen"
)

// Family is one compiled schedule family: the Go identifiers to emit, the
// registry entries bound to its runner, and the program descriptions
// executed in sequence by the generated runner (one per direction for the
// per-direction families, a single program for the fully fused ones).
type Family struct {
	// FuncName is the exported Go function name of the runner.
	FuncName string
	// FileName is the base name of the emitted file (without dir).
	FileName string
	// Comment is a short description placed above the runner.
	Comment string
	// Entries are the conformance-registry runners of the family. A
	// tiled family's runner takes the tile edge as a trailing argument,
	// which each entry binds.
	Entries []Entry
	// TemporalK, when positive, marks a temporal-blocking family fusing
	// that many Euler steps per sweep: the runner's contract changes to
	// the K-step delta (phi0 over valid grown by TemporalK*NGhost, phi1
	// accumulating state_K - phi0), checked by kernel.CheckStateK.
	TemporalK int
	// Progs are executed in order, each against a rewound arena mark.
	// Either every program is tiled or none is.
	Progs []codegen.ProgramDesc
}

// Entry is one registered runner of a family: its registry name and, for
// a tiled family, the tile edge it binds (0: one whole-box tile).
type Entry struct {
	Name string
	Edge int
}

// tiled reports whether the family's runner takes the tile-edge argument.
func (f Family) tiled() bool { return f.Progs[0].Tiled }

// zSlabs reports whether the runner splits the outer z loop of every
// top-level nest into slabs over threads, joining between nests: legal
// for an untiled family with only full-array buffers and unshifted
// statements, whose instances at plane z write only plane z and read
// other planes (acc's z+1 face) only from earlier nests. Ring storage and
// shifted statements carry values across the planes of one nest.
func (f Family) zSlabs() bool {
	if f.tiled() {
		return false
	}
	for _, pd := range f.Progs {
		for _, b := range pd.Buffers {
			if b.Kind != "full" {
				return false
			}
		}
		for _, st := range pd.Stmts {
			for lvl := 0; lvl < st.Sched.Levels(); lvl++ {
				if st.Sched.ShiftOf(lvl) != 0 {
					return false
				}
			}
		}
	}
	return true
}

// axisOf maps a loop-variable name to its spatial axis: x/tx are axis 0,
// y/ty axis 1, z/tz axis 2.
func axisOf(name string) (int, error) {
	switch name {
	case "x", "tx":
		return 0, nil
	case "y", "ty":
		return 1, nil
	case "z", "tz":
		return 2, nil
	}
	return 0, fmt.Errorf("schedc: unknown loop variable %q", name)
}

// isTileVar reports whether a loop variable is a tile-origin variable.
func isTileVar(name string) bool {
	return len(name) == 2 && name[0] == 't'
}

// isTimeVar reports whether a loop variable is the temporal sub-step
// axis. Like tile-origin variables it carries no spatial axis: macros
// never index storage by k — the time axis only shapes the (shrinking)
// statement domains.
func isTimeVar(name string) bool { return name == "k" }
