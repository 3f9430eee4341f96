// Package sched names and enumerates the inter-loop scheduling variants of
// Section IV. A Variant is a point in the design space spanned by
//
//   - Family — the broad schedule category: the original series of loops,
//     shifted-and-fused loops, shifted/fused/tiled loops run in wavefronts,
//     or overlapped (communication-avoiding) tiles;
//   - Granularity — parallelization over boxes (P>=Box) or within boxes
//     (P<Box);
//   - component-loop placement — outside (CLO) or inside (CLI) the spatial
//     loops;
//   - tile size — 4, 8, 16 or 32 for the tiled families;
//   - intra-tile schedule — series-of-loops ("Basic-Sched") or
//     shifted-and-fused ("Shift-Fuse") inside each overlapped tile.
//
// The paper counts 328 possible variations across all of its configuration
// axes and studies about 30 of them; Studied returns the 32 points this
// reproduction implements and measures, covering every configuration that
// appears in the paper's figures.
package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Family is the broad schedule category of Section IV-A..D.
type Family int

const (
	// Series is the original exemplar: a series of modular loops (Fig. 7).
	Series Family = iota
	// ShiftFuse shifts the face loops and fuses them with the cell loops
	// (Fig. 8a).
	ShiftFuse
	// BlockedWavefront tiles the fused iteration space and runs tiles in
	// anti-diagonal wavefronts (Fig. 8b).
	BlockedWavefront
	// OverlappedTile expands every tile by the face planes it consumes so
	// tiles become independent, at the cost of recomputation (Fig. 8c).
	OverlappedTile
)

// String returns the paper's name for the family.
func (f Family) String() string {
	switch f {
	case Series:
		return "Baseline"
	case ShiftFuse:
		return "Shift-Fuse"
	case BlockedWavefront:
		return "Blocked WF"
	case OverlappedTile:
		return "OT"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Granularity is the parallelization granularity.
type Granularity int

const (
	// OverBoxes assigns whole boxes to threads: the paper's "P>=Box", how
	// Chombo parallelizes today (one box per MPI rank / OpenMP thread).
	OverBoxes Granularity = iota
	// WithinBox parallelizes the loops inside one box (over z-slabs, cells
	// in a wavefront, or tiles): the paper's "P<Box".
	WithinBox
)

// String returns the paper's notation.
func (g Granularity) String() string {
	if g == OverBoxes {
		return "P>=Box"
	}
	return "P<Box"
}

// CompLoop is the placement of the component loop.
type CompLoop int

const (
	// CLO keeps the loop over the NComp solution components outside the
	// spatial loops.
	CLO CompLoop = iota
	// CLI moves the component loop innermost, under the spatial loops.
	CLI
)

// String returns the paper's abbreviation.
func (c CompLoop) String() string {
	if c == CLO {
		return "CLO"
	}
	return "CLI"
}

// IntraTile is the schedule used inside each overlapped tile.
type IntraTile int

const (
	// BasicSched runs the original series of loops inside each tile.
	BasicSched IntraTile = iota
	// FusedSched runs shifted-and-fused loops inside each tile.
	FusedSched
)

// String returns the paper's label.
func (i IntraTile) String() string {
	if i == BasicSched {
		return "Basic-Sched"
	}
	return "Shift-Fuse"
}

// TileSizes are the tile edge lengths the paper sweeps.
var TileSizes = []int{4, 8, 16, 32}

// Variant identifies one inter-loop scheduling variant.
type Variant struct {
	Family   Family
	Par      Granularity
	Comp     CompLoop
	TileSize int       // cubic tile edge; 0 for the untiled families
	Intra    IntraTile // meaningful only for OverlappedTile
	// TileVec selects a rectangular (per-dimension) tile shape instead of
	// the cubic TileSize — the extension behind the paper's full
	// design-space count, covering pencil and slab tiles as well as cubes.
	// Exactly one of TileSize and TileVec may be set for tiled families.
	TileVec [3]int
}

// Tiled reports whether the variant has a tile-size axis.
func (v Variant) Tiled() bool {
	return v.Family == BlockedWavefront || v.Family == OverlappedTile
}

// Rect reports whether the variant uses a rectangular tile shape.
func (v Variant) Rect() bool { return v.TileVec != [3]int{} }

// TileShape returns the per-dimension tile shape of a tiled variant
// (cubic variants return uniform components). It panics for untiled
// families.
func (v Variant) TileShape() [3]int {
	if !v.Tiled() {
		panic(fmt.Sprintf("sched: %s has no tile shape", v.Name()))
	}
	if v.Rect() {
		return v.TileVec
	}
	return [3]int{v.TileSize, v.TileSize, v.TileSize}
}

// MaxTileEdge returns the largest tile dimension (for "tile fits in box"
// pruning).
func (v Variant) MaxTileEdge() int {
	t := v.TileShape()
	return max(t[0], max(t[1], t[2]))
}

// Validate checks internal consistency: tiled families need a studied tile
// size, untiled families must not carry one, and only overlapped tiles have
// an intra-tile schedule choice.
func (v Variant) Validate() error {
	if v.Family < Series || v.Family > OverlappedTile {
		return fmt.Errorf("sched: unknown family %d", int(v.Family))
	}
	studiedSize := func(t int) bool {
		for _, s := range TileSizes {
			if t == s {
				return true
			}
		}
		return false
	}
	if v.Tiled() {
		switch {
		case v.Rect() && v.TileSize != 0:
			return fmt.Errorf("sched: %s sets both TileSize and TileVec", v.Family)
		case v.Rect():
			for _, t := range v.TileVec {
				if !studiedSize(t) {
					return fmt.Errorf("sched: %s requires tile edges in %v, got %v",
						v.Family, TileSizes, v.TileVec)
				}
			}
		case !studiedSize(v.TileSize):
			return fmt.Errorf("sched: %s requires tile size in %v, got %d",
				v.Family, TileSizes, v.TileSize)
		}
	} else if v.TileSize != 0 || v.Rect() {
		return fmt.Errorf("sched: %s does not take a tile size (got %d, %v)",
			v.Family, v.TileSize, v.TileVec)
	}
	if v.Family != OverlappedTile && v.Intra != BasicSched {
		return fmt.Errorf("sched: intra-tile schedule only applies to OT")
	}
	return nil
}

// Name returns the variant's name in the paper's legend style, e.g.
// "Baseline: P>=Box", "Shift-Fuse: P>=Box", "Blocked WF-CLO-16: P<Box",
// "Shift-Fuse OT-8: P<Box", "Basic-Sched OT-16: P>=Box".
func (v Variant) Name() string {
	tile := func() string {
		if v.Rect() {
			return fmt.Sprintf("%dx%dx%d", v.TileVec[0], v.TileVec[1], v.TileVec[2])
		}
		return fmt.Sprintf("%d", v.TileSize)
	}
	switch v.Family {
	case Series:
		return fmt.Sprintf("Baseline-%s: %s", v.Comp, v.Par)
	case ShiftFuse:
		return fmt.Sprintf("Shift-Fuse-%s: %s", v.Comp, v.Par)
	case BlockedWavefront:
		return fmt.Sprintf("Blocked WF-%s-%s: %s", v.Comp, tile(), v.Par)
	case OverlappedTile:
		return fmt.Sprintf("%s OT-%s: %s", v.Intra, tile(), v.Par)
	default:
		return fmt.Sprintf("Variant(%+v)", v)
	}
}

// String is Name.
func (v Variant) String() string { return v.Name() }

// Parse inverts Name. It accepts the exact strings produced by Name and the
// paper's shorthand without the component-loop tag ("Baseline: P>=Box"
// parses as CLO). The unicode "≥" is accepted for ">=".
func Parse(s string) (Variant, error) {
	orig := s
	s = strings.ReplaceAll(s, "≥", ">=")
	head, parTag, ok := strings.Cut(s, ":")
	if !ok {
		return Variant{}, fmt.Errorf("sched: %q missing ': P...' granularity", orig)
	}
	var v Variant
	switch strings.TrimSpace(parTag) {
	case "P>=Box":
		v.Par = OverBoxes
	case "P<Box":
		v.Par = WithinBox
	default:
		return Variant{}, fmt.Errorf("sched: bad granularity in %q", orig)
	}
	head = strings.TrimSpace(head)
	switch {
	case strings.Contains(head, "OT-"):
		v.Family = OverlappedTile
		fields := strings.Fields(head)
		if len(fields) != 2 {
			return Variant{}, fmt.Errorf("sched: bad OT name %q", orig)
		}
		switch fields[0] {
		case "Basic-Sched":
			v.Intra = BasicSched
		case "Shift-Fuse":
			v.Intra = FusedSched
		default:
			return Variant{}, fmt.Errorf("sched: bad intra-tile schedule in %q", orig)
		}
		if !strings.HasPrefix(fields[1], "OT-") {
			return Variant{}, fmt.Errorf("sched: bad OT tag in %q", orig)
		}
		if err := parseTile(strings.TrimPrefix(fields[1], "OT-"), &v); err != nil {
			return Variant{}, fmt.Errorf("sched: bad tile size in %q: %v", orig, err)
		}
	case strings.HasPrefix(head, "Blocked WF"):
		v.Family = BlockedWavefront
		rest := strings.TrimPrefix(head, "Blocked WF-")
		comp, tileTag, ok := strings.Cut(rest, "-")
		if !ok {
			return Variant{}, fmt.Errorf("sched: bad blocked WF name %q", orig)
		}
		switch comp {
		case "CLO":
			v.Comp = CLO
		case "CLI":
			v.Comp = CLI
		default:
			return Variant{}, fmt.Errorf("sched: bad comp loop in %q", orig)
		}
		if err := parseTile(tileTag, &v); err != nil {
			return Variant{}, fmt.Errorf("sched: bad tile size in %q: %v", orig, err)
		}
	case strings.HasPrefix(head, "Baseline"), strings.HasPrefix(head, "Shift-Fuse"):
		if strings.HasPrefix(head, "Baseline") {
			v.Family = Series
			head = strings.TrimPrefix(head, "Baseline")
		} else {
			v.Family = ShiftFuse
			head = strings.TrimPrefix(head, "Shift-Fuse")
		}
		switch strings.TrimPrefix(head, "-") {
		case "", "CLO":
			v.Comp = CLO
		case "CLI":
			v.Comp = CLI
		default:
			return Variant{}, fmt.Errorf("sched: bad comp loop in %q", orig)
		}
	default:
		return Variant{}, fmt.Errorf("sched: unknown variant %q", orig)
	}
	if err := v.Validate(); err != nil {
		return Variant{}, err
	}
	return v, nil
}

// parseTile parses a tile tag — "8" for cubic, "8x8x32" for rectangular —
// into v.
func parseTile(tag string, v *Variant) error {
	if strings.Contains(tag, "x") {
		var t [3]int
		if _, err := fmt.Sscanf(tag, "%dx%dx%d", &t[0], &t[1], &t[2]); err != nil {
			return err
		}
		v.TileVec = t
		return nil
	}
	_, err := fmt.Sscanf(tag, "%d", &v.TileSize)
	return err
}

// Studied returns the 32 variants this study implements and measures,
// ordered by family, granularity, component loop and tile size. They cover
// the four categories of Section IV along every axis that appears in the
// paper's figures:
//
//   - Series:          {P>=Box, P<Box} x {CLO, CLI}                  (4)
//   - Shift-Fuse:      {P>=Box, P<Box wavefront} x {CLO, CLI}        (4)
//   - Blocked WF:      P<Box x {CLO, CLI} x T in {4,8,16,32}         (8)
//   - Overlapped tile: {Basic,Fused} x {P>=Box,P<Box} x T in {4..32} (16)
func Studied() []Variant {
	var vs []Variant
	for _, par := range []Granularity{OverBoxes, WithinBox} {
		for _, comp := range []CompLoop{CLO, CLI} {
			vs = append(vs, Variant{Family: Series, Par: par, Comp: comp})
		}
	}
	for _, par := range []Granularity{OverBoxes, WithinBox} {
		for _, comp := range []CompLoop{CLO, CLI} {
			vs = append(vs, Variant{Family: ShiftFuse, Par: par, Comp: comp})
		}
	}
	for _, comp := range []CompLoop{CLO, CLI} {
		for _, t := range TileSizes {
			vs = append(vs, Variant{Family: BlockedWavefront, Par: WithinBox, Comp: comp, TileSize: t})
		}
	}
	for _, intra := range []IntraTile{BasicSched, FusedSched} {
		for _, par := range []Granularity{OverBoxes, WithinBox} {
			for _, t := range TileSizes {
				vs = append(vs, Variant{Family: OverlappedTile, Par: par, Comp: CLO, TileSize: t, Intra: intra})
			}
		}
	}
	return vs
}

// ByName returns the studied variant with the given Name (or paper
// shorthand).
func ByName(name string) (Variant, error) {
	v, err := Parse(name)
	if err != nil {
		return Variant{}, err
	}
	for _, s := range Studied() {
		if s == v {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("sched: %q is valid but not in the studied set", name)
}

// Names returns the sorted names of all studied variants.
func Names() []string {
	vs := Studied()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name()
	}
	sort.Strings(out)
	return out
}

// DesignSpaceSize describes the full design-space the paper samples from.
// The paper cites 328 possible variations when every combination of
// intra-tile schedule, inter-tile schedule, parallelization granularity and
// per-axis tile size is counted; with the axes enumerated in this package
// (cubic tiles only) the space has the returned size. Studied() is the
// practical subset, chosen with the paper's pruning rules (e.g. tiled OT
// variants keep the component loop outside because CLI was uniformly
// slower untiled).
func DesignSpaceSize() int {
	series := 2 * 2                     // par x comp
	shiftFuse := 2 * 2                  // par x comp
	blockedWF := 2 * 2 * len(TileSizes) // par x comp x T
	ot := 2 * 2 * 2 * len(TileSizes)    // intra x par x comp x T
	return series + shiftFuse + blockedWF + ot
}

// ExtendedDesignSpace enumerates the design space with rectangular
// (per-dimension) tile shapes — pencils, slabs and cubes with every edge
// drawn from TileSizes, 4^3 = 64 shapes. It has 392 points: 8 untiled
// (Series and Shift-Fuse, each P>=Box/P<Box × CLO/CLI), 2*64 Blocked WF
// (CLO/CLI, P<Box only) and 2*2*64 overlapped tiles (Basic/Fused intra-tile
// × P>=Box/P<Box, component loop outside only, the placement the paper
// kept after CLI proved uniformly slower). The paper's own 328 counts its
// axis choices, which it does not enumerate exactly; this function
// documents ours. Every returned variant validates and executes.
func ExtendedDesignSpace() []Variant {
	var vs []Variant
	for _, par := range []Granularity{OverBoxes, WithinBox} {
		for _, comp := range []CompLoop{CLO, CLI} {
			vs = append(vs, Variant{Family: Series, Par: par, Comp: comp})
			vs = append(vs, Variant{Family: ShiftFuse, Par: par, Comp: comp})
		}
	}
	shapes := func() [][3]int {
		var out [][3]int
		for _, tx := range TileSizes {
			for _, ty := range TileSizes {
				for _, tz := range TileSizes {
					out = append(out, [3]int{tx, ty, tz})
				}
			}
		}
		return out
	}()
	rectOf := func(t [3]int) Variant {
		if t[0] == t[1] && t[1] == t[2] {
			return Variant{TileSize: t[0]}
		}
		return Variant{TileVec: t}
	}
	for _, comp := range []CompLoop{CLO, CLI} {
		for _, t := range shapes {
			v := rectOf(t)
			v.Family, v.Par, v.Comp = BlockedWavefront, WithinBox, comp
			vs = append(vs, v)
		}
	}
	for _, intra := range []IntraTile{BasicSched, FusedSched} {
		for _, par := range []Granularity{OverBoxes, WithinBox} {
			for _, t := range shapes {
				v := rectOf(t)
				v.Family, v.Par, v.Intra = OverlappedTile, par, intra
				vs = append(vs, v)
			}
		}
	}
	return vs
}
