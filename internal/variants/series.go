package variants

import (
	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/parallel"
	"stencilsched/internal/scratch"
)

// fluxDirStride returns the stride between a cell's low and high face in
// the flux array for direction dir, given the flux array's y and z strides.
func fluxDirStride(dir, fy, fz int) int {
	switch dir {
	case 0:
		return 1
	case 1:
		return fy
	default:
		return fz
	}
}

// ExecSeriesNoVelocityTemp runs the series-of-loops ablation that avoids
// the velocity temporary via pass reordering (see execSeriesNoVelTemp).
// It has the same contract as Exec.
func ExecSeriesNoVelocityTemp(phi0, phi1 *fab.FAB, valid box.Box, threads int) Stats {
	kernel.CheckState(phi0, phi1, valid)
	ar := scratch.Default.Checkout()
	defer scratch.Default.Checkin(ar)
	return execSeriesNoVelTemp(newState(phi0, phi1, valid), parallel.Threads(threads), ar)
}

// execSeriesNoVelTemp is the ablation of the paper's note that the
// component-loop-outside series variant can avoid the velocity temporary by
// reordering: the face average of the velocity component is computed first
// and left in place in the flux array; other components scale against it;
// the velocity component scales itself last. Results remain bitwise
// identical to Reference. Exposed through AblationSeriesNoVelocityTemp.
func execSeriesNoVelTemp(s *state, threads int, ar *scratch.Arena) Stats {
	stats := Stats{UniqueFaces: uniqueFaces(s.valid)}
	stats.FacesEvaluated = stats.UniqueFaces
	base := ar.Mark()
	for dir := 0; dir < ivect.SpaceDim; dir++ {
		ar.Rewind(base)
		faces := s.valid.SurroundingFaces(dir)
		flux := ar.FAB(faces, kernel.NComp)
		if flux.Bytes() > stats.TempFluxBytes {
			stats.TempFluxBytes = flux.Bytes()
		}
		fy, fz, _ := flux.Strides()
		sd := s.str0[dir]
		nzF := faces.Size()[2]
		vc := kernel.VelComp(dir)

		// Pass 1 unchanged: all face averages (the velocity pre-pass body
		// computes exactly one component's).
		for c := 0; c < kernel.NComp; c++ {
			ph, out := s.comps0[c], flux.Comp(c)
			parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
				velSlabs(s, out, ph, faces, fy, fz, sd, zlo, zhi)
			})
		}

		// Pass 2: scale components against the in-place velocity component,
		// the velocity component itself last; accumulate after scaling.
		vel := flux.Comp(vc)
		var orderArr [kernel.NComp]int
		order := orderArr[:0]
		for c := 0; c < kernel.NComp; c++ {
			if c != vc {
				order = append(order, c)
			}
		}
		order = append(order, vc)
		scale := func(c int) {
			out := flux.Comp(c)
			parallel.ForChunked(threads, nzF, func(_, zlo, zhi int) {
				for zi := zlo; zi < zhi; zi++ {
					for y := faces.Lo[1]; y <= faces.Hi[1]; y++ {
						off := (y-faces.Lo[1])*fy + zi*fz
						for x := 0; x <= faces.Hi[0]-faces.Lo[0]; x++ {
							out[off+x] = kernel.Flux2(vel[off+x], out[off+x])
						}
					}
				}
			})
		}
		for _, c := range order {
			scale(c)
		}
		cells := s.valid
		fdir := fluxDirStride(dir, fy, fz)
		for c := 0; c < kernel.NComp; c++ {
			dst := s.comps1[c]
			fd := flux.Comp(c)
			parallel.ForChunked(threads, cells.Size()[2], func(_, zlo, zhi int) {
				for zi := zlo; zi < zhi; zi++ {
					for y := cells.Lo[1]; y <= cells.Hi[1]; y++ {
						fOff := (y-cells.Lo[1])*fy + (zi+cells.Lo[2]-faces.Lo[2])*fz
						pOff := s.off1(ivect.New(cells.Lo[0], y, cells.Lo[2]+zi))
						for x := 0; x <= cells.Hi[0]-cells.Lo[0]; x++ {
							dst[pOff+x] += fd[fOff+x+fdir] - fd[fOff+x]
						}
					}
				}
			})
		}
	}
	return stats
}
