package variants

import (
	"sync"

	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/sched"
	"stencilsched/internal/scratch"
	"stencilsched/internal/wavefront"
)

// execBlockedWF runs the shifted, fused and tiled schedule of Section IV-C
// (Fig. 8b): the fused iteration space is tiled with tiles of the given
// shape, tile (i,j,k) depends on its three lexicographic predecessor tiles
// through the carried flux values, and tiles on the same anti-diagonal
// execute concurrently.
//
// Carried flux values cross tile boundaries through global co-dimension
// caches — one slot per lattice column in each direction (the paper's "flux
// cache", 3-D for CLO and 4-D for CLI). Within a wavefront no two tiles
// share a column in any direction (tiles sharing an (y,z) column differ
// only in the x tile index and therefore sit on different anti-diagonals),
// so the wavefront barrier is the only synchronization required.
//
// The same body runs the shifted-and-fused schedule of Section IV-B
// (Fig. 8a): 1^3 tiles give its per-cell wavefront (P<Box, the variant the
// paper notes "ruins spatial locality in the X-direction"), and one tile
// covering the box gives the serial fused sweep.
func execBlockedWF(s *state, comp sched.CompLoop, shape ivect.IntVect, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: uniqueFaces(s.valid)}
	stats.FacesEvaluated = stats.UniqueFaces
	vel := velocityField(s, s.valid, threads, ar)
	stats.TempVelBytes = velBytes(vel)

	sz := s.valid.Size()
	nx, ny, nz := sz[0], sz[1], sz[2]
	nc := kernel.NComp // CLI: all components per sweep
	if comp == sched.CLO {
		nc = 1
	}
	w := wfPool.Get().(*fusedWF)
	defer w.release()
	w.s, w.shape, w.nc = s, shape, nc
	w.nx, w.ny = nx, ny
	w.base0, w.base1 = s.off0(s.valid.Lo), s.off1(s.valid.Lo)
	w.cx, w.cy, w.cz = ny*nz, nx*nz, nx*ny
	w.vx, w.vy, w.vz = newVelAcc(vel[0]), newVelAcc(vel[1]), newVelAcc(vel[2])
	w.gfx = ar.Floats(nc * ny * nz)
	w.gfy = ar.Floats(nc * nx * nz)
	w.gfz = ar.Floats(nc * nx * ny)
	stats.TempFluxBytes = int64(len(w.gfx)+len(w.gfy)+len(w.gfz)) * 8

	grid := s.valid.TileGridVect(shape).Size()
	for c := 0; c < kernel.NComp; c += nc {
		w.phs, w.dst = s.comps0[c:c+nc], s.comps1[c:c+nc]
		stats.Wavefront = wavefront.Run(grid, threads, w.tileFn)
	}
	return stats
}

// fusedWF carries one blocked-wavefront execution's loop-invariant set-up
// — velocity accessors, the current component run's slice tables and the
// co-dimension caches — so the per-tile body, which runs once per cell
// for 1^3 tiles, only computes its tile's bounds. Pooled with the tile
// method bound once, so steady-state executions allocate nothing.
type fusedWF struct {
	s             *state
	shape         ivect.IntVect
	nc            int
	nx, ny        int // valid-box extents
	cx, cy, cz    int // component strides of gfx, gfy, gfz
	base0, base1  int // offsets of the valid box's low corner in phi0, phi1
	vx, vy, vz    velAcc
	phs, dst      [][]float64
	gfx, gfy, gfz []float64
	tileFn        func(tid int, tv ivect.IntVect)
}

var wfPool = sync.Pool{New: func() any {
	w := new(fusedWF)
	w.tileFn = w.tile
	return w
}}

// release clears w's references to the execution's data and returns it to
// the pool.
func (w *fusedWF) release() {
	*w = fusedWF{tileFn: w.tileFn}
	wfPool.Put(w)
}

// tile runs the fused sweep over the cells of tile tv for the current
// component run, carrying flux values through the global co-dimension
// caches gfx (indexed by (y,z) relative to the valid box), gfy ((x,z)) and
// gfz ((x,y)). Slots double as the intra-tile carried values: each cell
// reads its low-face flux from the slot and leaves its high-face flux
// there, so the same body works for any tile shape. Only at the valid-box
// boundary is the low-face flux recomputed directly (the loop "shift"),
// with the exact expressions of the staged schedules.
func (w *fusedWF) tile(_ int, tv ivect.IntVect) {
	s := w.s
	vlo, vhi, sh := s.valid.Lo, s.valid.Hi, w.shape
	// Tile bounds in scalars: this runs once per cell for 1^3 tiles,
	// where box.TileAtVect's IntVect arithmetic profiled at about a fifth
	// of the cell.
	x0, y0, z0 := vlo[0]+tv[0]*sh[0], vlo[1]+tv[1]*sh[1], vlo[2]+tv[2]*sh[2]
	x1, y1, z1 := min(x0+sh[0]-1, vhi[0]), min(y0+sh[1]-1, vhi[1]), min(z0+sh[2]-1, vhi[2])
	nx, ny, nc := w.nx, w.ny, w.nc
	cx, cy, cz := w.cx, w.cy, w.cz
	vx, vy, vz := w.vx, w.vy, w.vz
	b0, s0y, s0z := w.base0, s.str0[1], s.str0[2]
	b1, s1y, s1z := w.base1, s.str1[1], s.str1[2]
	phs, dst := w.phs, w.dst
	gfx, gfy, gfz := w.gfx, w.gfy, w.gfz
	for z := z0; z <= z1; z++ {
		zi := z - vlo[2]
		for y := y0; y <= y1; y++ {
			yi := y - vlo[1]
			for x := x0; x <= x1; x++ {
				xi := x - vlo[0]
				o0 := b0 + xi + s0y*yi + s0z*zi
				o1 := b1 + xi + s1y*yi + s1z*zi
				jx, jy, jz := vx.off(xi, yi, zi), vy.off(xi, yi, zi), vz.off(xi, yi, zi)
				velXhi, velYhi, velZhi := vx.data[jx+1], vy.data[jy+vy.sy], vz.data[jz+vz.sz]
				kx, ky, kz := zi*ny+yi, zi*nx+xi, yi*nx+xi
				for ci := 0; ci < nc; ci, kx, ky, kz = ci+1, kx+cx, ky+cy, kz+cz {
					ph := phs[ci]
					fxhi := kernel.Flux2(velXhi, kernel.FaceAvg(ph, o0+1, 1))
					var fxlo float64
					if xi == 0 {
						fxlo = kernel.Flux2(vx.data[jx], kernel.FaceAvg(ph, o0, 1))
					} else {
						fxlo = gfx[kx]
					}
					fyhi := kernel.Flux2(velYhi, kernel.FaceAvg(ph, o0+s0y, s0y))
					var fylo float64
					if yi == 0 {
						fylo = kernel.Flux2(vy.data[jy], kernel.FaceAvg(ph, o0, s0y))
					} else {
						fylo = gfy[ky]
					}
					fzhi := kernel.Flux2(velZhi, kernel.FaceAvg(ph, o0+s0z, s0z))
					var fzlo float64
					if zi == 0 {
						fzlo = kernel.Flux2(vz.data[jz], kernel.FaceAvg(ph, o0, s0z))
					} else {
						fzlo = gfz[kz]
					}
					v := dst[ci][o1]
					v += fxhi - fxlo
					v += fyhi - fylo
					v += fzhi - fzlo
					dst[ci][o1] = v
					gfx[kx] = fxhi
					gfy[ky] = fyhi
					gfz[kz] = fzhi
				}
			}
		}
	}
}
