package generated

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/schedc"
)

// TestGeneratedFilesFresh recompiles every schedule family and compares
// the result byte-for-byte with the committed files: editing a schedule
// description (or the compiler) without re-running `go generate ./...`
// fails here, and so does a stray .gen.go file the compiler no longer
// emits.
func TestGeneratedFilesFresh(t *testing.T) {
	files, err := schedc.EmitFiles()
	if err != nil {
		t.Fatalf("EmitFiles: %v", err)
	}
	for name, want := range files {
		got, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("%s: %v (run `go generate ./...`)", name, err)
			continue
		}
		if string(got) != want {
			t.Errorf("%s is stale: committed file differs from compiler output (run `go generate ./...`)", name)
		}
	}
	stray, err := filepath.Glob("*.gen.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stray {
		if _, ok := files[name]; !ok {
			t.Errorf("%s is no longer emitted by the compiler; delete it", name)
		}
	}
}

// TestGeneratedPackageVetClean runs go vet over this package: the
// emitted source must be idiomatic enough to pass the standard static
// checks (unreachable code, shadowing-prone composites, printf misuse).
func TestGeneratedPackageVetClean(t *testing.T) {
	cmd := exec.Command("go", "vet", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet: %v\n%s", err, out)
	}
}

// testBoxes are the geometries of the local differential checks: cubes,
// a ragged one for 16^3 tiles, a non-cubic shifted one, and a 32^3 box
// that holds several tiles of every registered edge.
var testBoxes = []box.Box{
	box.Cube(8),
	box.Cube(12), // ragged 16^3 tiles
	box.NewSized(ivect.New(-3, 5, 2), ivect.New(9, 7, 11)), // non-cubic, shifted
	box.Cube(32),
}

// testEdges are the tile edges the tiled runners are called with directly:
// edges that divide the boxes and edges that leave ragged tiles, the
// registered 16 and 32, 0 (one whole-box tile) and one larger than every
// box.
var testEdges = []int{1, 2, 3, 5, 8, 16, 32, 0, 64}

// edgesFor returns the test edges run on box b. The 32^3 box skips edges
// below 5: they only repeat tile shapes the small boxes already cover, at
// up to 32768 tiles each (a K4 sweep at E=1 there takes tens of seconds).
func edgesFor(b box.Box) []int {
	if b.NumPts() < 32*32*32 {
		return testEdges
	}
	var es []int
	for _, E := range testEdges {
		if E <= 0 || E >= 5 {
			es = append(es, E)
		}
	}
	return es
}

// TestEntriesBitwiseEqualReference is the local differential check (the
// conformance sweep covers the same runners across many geometries; this
// pins correctness next to the generated code on offset boxes, and runs
// the tiled RunOT at every test edge, not only the registered one).
func TestEntriesBitwiseEqualReference(t *testing.T) {
	for bi, b := range testBoxes {
		phi0, want := kernel.NewState(b)
		phi0.Randomize(rand.New(rand.NewSource(int64(300+bi))), 0.25, 1.75)
		kernel.Reference(phi0, want, b)
		check := func(name string, run func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error) {
			phi1 := fab.New(b, kernel.NComp)
			if err := run(phi0, phi1, b, 1); err != nil {
				t.Errorf("box %v, %s: %v", b, name, err)
				return
			}
			if d, at, c := phi1.MaxDiff(want, b); d != 0 {
				t.Errorf("box %v, %s: diff %g at %v comp %d", b, name, d, at, c)
			}
		}
		for _, e := range Entries() {
			if e.TemporalK == 0 { // temporal runners: see the test below
				check(e.Name, e.Run)
			}
		}
		for _, E := range edgesFor(b) {
			check(fmt.Sprintf("RunOT E=%d", E), bindEdge(RunOT, E))
		}
	}
}

// TestSeriesRunnersZSlabs calls both series runners, which split each
// pass into z slabs, at several thread counts — including more threads
// than the box has z planes — and checks every run bitwise against
// kernel.Reference.
func TestSeriesRunnersZSlabs(t *testing.T) {
	boxes := []box.Box{
		box.NewSized(ivect.New(0, 0, 0), ivect.New(6, 5, 1)),
		box.NewSized(ivect.New(2, -1, 4), ivect.New(6, 5, 2)),
		box.NewSized(ivect.New(-3, 5, 2), ivect.New(9, 7, 11)), // non-cubic, shifted
		box.Cube(32),
	}
	runners := []struct {
		name string
		run  func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error
	}{{"RunSeries", RunSeries}, {"RunSeriesCLI", RunSeriesCLI}}
	for bi, b := range boxes {
		phi0, want := kernel.NewState(b)
		phi0.Randomize(rand.New(rand.NewSource(int64(700+bi))), 0.25, 1.75)
		kernel.Reference(phi0, want, b)
		for _, r := range runners {
			for _, threads := range []int{1, 2, 3, 8} {
				phi1 := fab.New(b, kernel.NComp)
				if err := r.run(phi0, phi1, b, threads); err != nil {
					t.Fatalf("box %v, %s threads=%d: %v", b, r.name, threads, err)
				}
				if d, at, c := phi1.MaxDiff(want, b); d != 0 {
					t.Errorf("box %v, %s threads=%d: diff %g at %v comp %d", b, r.name, threads, d, at, c)
				}
			}
		}
	}
}

// temporalDelta composes kernel.Reference k times on shrinking regions
// (the wavefront in time) and returns the K-step delta state_k - phi0
// over valid — the oracle for the temporal-blocking runners, built here
// from the kernel alone so this package's tests stay self-contained.
func temporalDelta(phi0 *fab.FAB, valid box.Box, k int) *fab.FAB {
	ng := kernel.NGhost
	state := fab.New(valid.Grow(k*ng), kernel.NComp)
	state.CopyFrom(phi0, state.Box())
	for j := 0; j < k; j++ {
		reg := valid.Grow((k - 1 - j) * ng)
		acc := fab.New(reg, kernel.NComp)
		kernel.Reference(state, acc, reg)
		state.Plus(acc, reg, -kernel.EulerDt)
	}
	delta := fab.New(valid, kernel.NComp)
	delta.CopyFrom(state, valid)
	delta.Plus(phi0, valid, -1)
	return delta
}

// TestTemporalEntriesBitwiseEqualComposition pins every generated
// temporal runner bitwise against composing kernel.Reference K times, on
// offset and ragged boxes: the registered entries, and each K's runner
// called directly at every test edge.
func TestTemporalEntriesBitwiseEqualComposition(t *testing.T) {
	runners := map[int]func(phi0, phi1 *fab.FAB, valid box.Box, threads, E int) error{
		1: RunTemporalK1, 2: RunTemporalK2, 4: RunTemporalK4,
	}
	for bi, b := range testBoxes {
		for _, k := range []int{1, 2, 4} {
			phi0 := fab.New(b.Grow(k*kernel.NGhost), kernel.NComp)
			phi0.Randomize(rand.New(rand.NewSource(int64(500+bi))), 0.25, 1.75)
			want := temporalDelta(phi0, b, k)
			check := func(name string, run func(phi0, phi1 *fab.FAB, valid box.Box, threads int) error) {
				phi1 := fab.New(b, kernel.NComp)
				if err := run(phi0, phi1, b, 1); err != nil {
					t.Errorf("box %v, %s: %v", b, name, err)
					return
				}
				if d, at, c := phi1.MaxDiff(want, b); d != 0 {
					t.Errorf("box %v, %s: diff %g at %v comp %d", b, name, d, at, c)
				}
			}
			for _, e := range Entries() {
				if e.TemporalK == k {
					check(e.Name, e.Run)
				}
			}
			for _, E := range edgesFor(b) {
				check(fmt.Sprintf("RunTemporalK%d E=%d", k, E), bindEdge(runners[k], E))
			}
		}
	}
}
