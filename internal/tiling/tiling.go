// Package tiling decomposes boxes into tiles for the tiled scheduling
// variants of Section IV: blocked wavefront tiles (Fig. 8b) and overlapped,
// communication-avoiding tiles (Fig. 8c).
//
// For overlapped tiles, every tile computes all of the face fluxes its own
// cells consume — including the faces on the tile surface, which the
// adjacent tile computes too. The package quantifies that redundancy
// (RecomputeFactor), the quantity the paper trades against parallelism and
// temporary storage.
package tiling

import (
	"fmt"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

// Tile is one element of a tiled decomposition of a box.
type Tile struct {
	// Index is the tile's coordinate in the tile grid; Index.Sum() is its
	// wavefront number for the blocked-wavefront schedules.
	Index ivect.IntVect
	// Cells is the tile's cell box, clipped to the decomposed box. Tiles
	// partition the box: every cell is in exactly one tile.
	Cells box.Box
}

// Faces returns the box of faces in direction d that the tile's cells
// consume. In the overlapped-tile schedules each tile evaluates all of
// them; faces on shared tile surfaces are evaluated by both neighbors.
func (t Tile) Faces(d int) box.Box { return t.Cells.SurroundingFaces(d) }

// Decomposition is a tiling of a box.
type Decomposition struct {
	Box   box.Box
	Shape ivect.IntVect // tile cells per dimension (cubes, pencils, slabs)
	Grid  box.Box       // box of tile indices
	Tiles []Tile        // ordered x-fastest by Index, matching Grid.ForEach
}

// Decompose tiles b with cubic tiles of at most t cells per dimension. It
// panics for an empty box or non-positive tile size.
func Decompose(b box.Box, t int) *Decomposition {
	return DecomposeVect(b, ivect.Uniform(t))
}

// DecomposeVect tiles b with a per-dimension tile shape: cubes trade
// spatial locality in x for temporal locality in y and z (Sec. IV-C);
// pencils and slabs keep longer unit-stride runs at the cost of larger
// per-tile working sets.
func DecomposeVect(b box.Box, t ivect.IntVect) *Decomposition {
	if b.IsEmpty() {
		panic("tiling: empty box")
	}
	if t[0] <= 0 || t[1] <= 0 || t[2] <= 0 {
		panic(fmt.Sprintf("tiling: tile shape %v must be positive", t))
	}
	grid := b.TileGridVect(t)
	d := &Decomposition{
		Box:   b,
		Shape: t,
		Grid:  grid,
		Tiles: make([]Tile, 0, grid.NumPts()),
	}
	grid.ForEach(func(tv ivect.IntVect) {
		d.Tiles = append(d.Tiles, Tile{Index: tv, Cells: b.TileAtVect(t, tv)})
	})
	return d
}

// NumTiles returns the number of tiles.
func (d *Decomposition) NumTiles() int { return len(d.Tiles) }

// FaceStats quantifies face-evaluation redundancy for a decomposition.
type FaceStats struct {
	// UniqueFaces is the number of distinct face evaluations the box needs,
	// summed over the three directions.
	UniqueFaces int64
	// EvaluatedFaces is the number of face evaluations overlapped tiles
	// actually perform: each tile evaluates (T_d+1) face planes per
	// direction, so interior tile surfaces are evaluated twice.
	EvaluatedFaces int64
}

// RecomputeFactor returns EvaluatedFaces / UniqueFaces, the redundant-work
// multiplier of the overlapped-tile schedules (>= 1; approaches (T+1)/T per
// direction for large boxes).
func (s FaceStats) RecomputeFactor() float64 {
	if s.UniqueFaces == 0 {
		return 1
	}
	return float64(s.EvaluatedFaces) / float64(s.UniqueFaces)
}

// OverlapStats computes the face-evaluation redundancy of running the
// overlapped-tile schedule on d.
func (d *Decomposition) OverlapStats() FaceStats {
	var s FaceStats
	for dir := 0; dir < ivect.SpaceDim; dir++ {
		s.UniqueFaces += int64(d.Box.SurroundingFaces(dir).NumPts())
		for _, t := range d.Tiles {
			s.EvaluatedFaces += int64(t.Faces(dir).NumPts())
		}
	}
	return s
}

// Verify checks the partition invariants: tiles are disjoint, cover the box
// exactly, and respect the tile size. It is used by tests and by the
// executors' debug paths; it returns an error rather than panicking so
// property tests can report the failing geometry.
func (d *Decomposition) Verify() error {
	total := 0
	for i, t := range d.Tiles {
		if t.Cells.IsEmpty() {
			return fmt.Errorf("tiling: tile %d (%v) empty", i, t.Index)
		}
		if !d.Box.ContainsBox(t.Cells) {
			return fmt.Errorf("tiling: tile %v escapes box %v", t.Cells, d.Box)
		}
		for dim := 0; dim < 3; dim++ {
			if t.Cells.Size()[dim] > d.Shape[dim] {
				return fmt.Errorf("tiling: tile %v exceeds shape %v", t.Cells, d.Shape)
			}
		}
		total += t.Cells.NumPts()
	}
	if total != d.Box.NumPts() {
		return fmt.Errorf("tiling: tiles cover %d of %d cells", total, d.Box.NumPts())
	}
	// Disjointness: since sizes add up to the box and every tile is inside
	// the box, any overlap would force total > NumPts, so the two checks
	// above already imply disjointness.
	return nil
}
