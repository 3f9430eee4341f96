package tiling

import (
	"math"
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
)

func TestDecomposeVerifyRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		b := box.NewSized(
			ivect.New(rnd.Intn(10)-5, rnd.Intn(10)-5, rnd.Intn(10)-5),
			ivect.New(rnd.Intn(20)+1, rnd.Intn(20)+1, rnd.Intn(20)+1))
		ts := rnd.Intn(7) + 1
		d := Decompose(b, ts)
		if err := d.Verify(); err != nil {
			t.Fatalf("box %v tile %d: %v", b, ts, err)
		}
	}
}

func TestDecomposePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Decompose(empty) did not panic")
			}
		}()
		Decompose(box.Empty(), 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Decompose(t=0) did not panic")
			}
		}()
		Decompose(box.Cube(4), 0)
	}()
}

func TestOT16On128MatchesPaperGeometry(t *testing.T) {
	// The paper's OT-16 on N=128: an 8^3 grid of 512 tiles.
	d := Decompose(box.Cube(128), 16)
	if d.NumTiles() != 512 || d.Grid.Size() != ivect.Uniform(8) {
		t.Fatalf("tiles = %d, grid %v", d.NumTiles(), d.Grid.Size())
	}
	// N=16 with T=16 is a single serial tile — the paper's explanation for
	// P<Box collapsing on small boxes (Fig. 9 discussion).
	if Decompose(box.Cube(16), 16).NumTiles() != 1 {
		t.Fatal("16/16 should be one tile")
	}
}

func TestFacesConsumedByTile(t *testing.T) {
	d := Decompose(box.Cube(8), 4)
	tile := d.Tiles[1] // index (1,0,0): tiles are ordered x-fastest
	fx := tile.Faces(0)
	if fx.Size() != ivect.New(5, 4, 4) {
		t.Fatalf("x faces size = %v", fx.Size())
	}
	// The tile's low x-face plane coincides with its left neighbor's high
	// x-face plane: that shared plane is what overlapped tiles recompute.
	left := d.Tiles[0]
	shared := fx.Intersect(left.Faces(0))
	if shared.NumPts() != 4*4 {
		t.Fatalf("shared face plane = %d faces", shared.NumPts())
	}
}

func TestOverlapStatsRecomputeFactor(t *testing.T) {
	// For an N box with T tiles per dim (N divisible by T), per direction:
	// unique faces = (N+1)N^2; evaluated = (N/T)(T+1)N^2. Check exactly.
	n, ts := 32, 8
	d := Decompose(box.Cube(n), ts)
	s := d.OverlapStats()
	wantUnique := int64(3 * (n + 1) * n * n)
	wantEval := int64(3 * (n / ts) * (ts + 1) * n * n)
	if s.UniqueFaces != wantUnique || s.EvaluatedFaces != wantEval {
		t.Fatalf("stats = %+v, want unique %d eval %d", s, wantUnique, wantEval)
	}
	want := float64(wantEval) / float64(wantUnique)
	if math.Abs(s.RecomputeFactor()-want) > 1e-15 {
		t.Fatalf("factor = %v, want %v", s.RecomputeFactor(), want)
	}
	// Smaller tiles recompute more: factor(T=4) > factor(T=16).
	f4 := Decompose(box.Cube(n), 4).OverlapStats().RecomputeFactor()
	f16 := Decompose(box.Cube(n), 16).OverlapStats().RecomputeFactor()
	if !(f4 > f16) {
		t.Fatalf("recompute factor not decreasing in tile size: %v vs %v", f4, f16)
	}
}

func TestSingleTileNoRecompute(t *testing.T) {
	d := Decompose(box.Cube(8), 8)
	if f := d.OverlapStats().RecomputeFactor(); f != 1 {
		t.Fatalf("single tile factor = %v", f)
	}
}
