package variants

import (
	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/parallel"
	"stencilsched/internal/sched"
	"stencilsched/internal/tiling"
	"stencilsched/internal/variants/generated"
)

// execOverlapped runs the overlapped-tile (communication-avoiding) schedule
// of Section IV-D (Fig. 8c). The box is partitioned into tiles of the
// given shape and each tile independently evaluates every face flux its
// own cells consume — faces on shared tile surfaces are evaluated by both
// neighbors, trading redundant computation for the removal of all
// inter-tile dependences. Because the recomputed fluxes are the same
// expressions over the same read-only phi0, results remain bitwise
// identical to the reference.
//
// Each tile is simply the valid box of one generated-runner call: intra
// selects generated.RunSeries (BasicSched, tile-sized flux and velocity
// temporaries) or generated.RunShiftFuse (FusedSched, Table I's per-thread
// 2 + 2T + 2T^2 flux and 3(T+1)^3 velocity temporaries). Tiles are
// distributed to threads dynamically, and every call draws its arena from
// scratch.Default, so temporary storage scales with P (the paper's Table I
// factor) and is retained for the next execution. threads must already be
// clamped (Exec does).
func execOverlapped(phi0, phi1 *fab.FAB, valid box.Box, intra sched.IntraTile, shape ivect.IntVect, threads int) Stats {
	dec := tiling.DecomposeVect(valid, shape)
	run := generated.RunSeries
	if intra == sched.FusedSched {
		run = generated.RunShiftFuse
	}
	parallel.Dynamic(threads, dec.NumTiles(), 1, func(_, i int) {
		mustRun(run(phi0, phi1, dec.Tiles[i].Cells, 1))
	})
	// Per-thread temporaries are those of the first tile, the largest
	// (only tiles at the high box edges are clipped).
	stats := generatedStats(intra, dec.Tiles[0].Cells)
	stats.TempFluxBytes *= int64(threads)
	stats.TempVelBytes *= int64(threads)
	stats.UniqueFaces = uniqueFaces(valid)
	stats.FacesEvaluated = dec.OverlapStats().EvaluatedFaces
	return stats
}
