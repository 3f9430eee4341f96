package variants

import (
	"math/rand"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/fab"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
	"stencilsched/internal/perfmodel"
	"stencilsched/internal/sched"
)

// runReference produces the oracle result for a random state on b.
func makeState(b box.Box, seed int64) (phi0, phi1 *fab.FAB) {
	phi0, phi1 = kernel.NewState(b)
	rnd := rand.New(rand.NewSource(seed))
	phi0.Randomize(rnd, 0.25, 1.75)
	return phi0, phi1
}

// TestAllVariantsBitwiseEqualReference is the central correctness property
// of the study: every scheduling variant — fused, tiled, wavefronted,
// recomputing — produces bit-for-bit the same phi1 as the Figure 6
// reference, because all of them evaluate the same expressions on the same
// read-only inputs and accumulate per cell in direction order.
func TestAllVariantsBitwiseEqualReference(t *testing.T) {
	boxes := []box.Box{
		box.Cube(8),
		box.Cube(12), // ragged tiles for T=8
		box.NewSized(ivect.New(-3, 5, 2), ivect.New(9, 7, 11)), // non-cubic, shifted
	}
	for bi, b := range boxes {
		phi0, want := makeState(b, int64(100+bi))
		kernel.Reference(phi0, want, b)
		for _, v := range sched.Studied() {
			for _, threads := range []int{1, 3} {
				phi1 := fab.New(b, kernel.NComp)
				Exec(v, phi0, phi1, b, threads)
				if d, at, c := phi1.MaxDiff(want, b); d != 0 {
					t.Errorf("box %v, %s, threads=%d: diff %g at %v comp %d",
						b, v.Name(), threads, d, at, c)
				}
			}
		}
	}
}

func TestVariantsAccumulate(t *testing.T) {
	// Variants must accumulate into phi1, not overwrite it.
	b := box.Cube(6)
	phi0, want := makeState(b, 7)
	want.Fill(3.5)
	kernel.Reference(phi0, want, b)
	for _, v := range []string{"Baseline-CLO: P>=Box", "Shift-Fuse OT-4: P<Box", "Blocked WF-CLI-4: P<Box"} {
		vv, err := sched.ByName(v)
		if err != nil {
			t.Fatal(err)
		}
		phi1 := fab.New(b, kernel.NComp)
		phi1.Fill(3.5)
		Exec(vv, phi0, phi1, b, 2)
		if d, at, c := phi1.MaxDiff(want, b); d != 0 {
			t.Errorf("%s: accumulation broken, diff %g at %v comp %d", v, d, at, c)
		}
	}
}

func TestAblationSeriesNoVelTempBitwise(t *testing.T) {
	b := box.NewSized(ivect.New(1, -2, 0), ivect.New(7, 9, 6))
	phi0, want := makeState(b, 9)
	kernel.Reference(phi0, want, b)
	phi1 := fab.New(b, kernel.NComp)
	st := execSeriesNoVelTemp(newState(phi0, phi1, b), 2, nil)
	if d, at, c := phi1.MaxDiff(want, b); d != 0 {
		t.Fatalf("no-vel-temp ablation differs: %g at %v comp %d", d, at, c)
	}
	if st.TempVelBytes != 0 {
		t.Fatalf("ablation allocated velocity temp: %d bytes", st.TempVelBytes)
	}
}

func TestExecPanicsOnInvalidVariant(t *testing.T) {
	b := box.Cube(4)
	phi0, phi1 := kernel.NewState(b)
	defer func() {
		if recover() == nil {
			t.Error("invalid variant did not panic")
		}
	}()
	Exec(sched.Variant{Family: sched.BlockedWavefront, TileSize: 7}, phi0, phi1, b, 1)
}

func TestStatsUniqueFaces(t *testing.T) {
	b := box.Cube(8)
	phi0, phi1 := kernel.NewState(b)
	phi0.Fill(1)
	st := Exec(sched.Variant{Family: sched.Series}, phi0, phi1, b, 1)
	want := int64(3 * 9 * 8 * 8)
	if st.UniqueFaces != want || st.FacesEvaluated != want {
		t.Fatalf("faces = %d/%d, want %d", st.FacesEvaluated, st.UniqueFaces, want)
	}
	if st.RecomputeFactor() != 1 {
		t.Fatalf("series recompute factor = %v", st.RecomputeFactor())
	}
}

func TestStatsOverlappedRecompute(t *testing.T) {
	b := box.Cube(16)
	phi0, phi1 := kernel.NewState(b)
	phi0.Fill(1)
	v := sched.Variant{Family: sched.OverlappedTile, Par: sched.WithinBox, TileSize: 4, Intra: sched.FusedSched}
	st := Exec(v, phi0, phi1, b, 2)
	// Exact: per dir, (16/4) tiles of (4+1) face planes vs 17 planes.
	wantEval := int64(3 * (16 / 4) * 5 * 16 * 16)
	if st.FacesEvaluated != wantEval {
		t.Fatalf("FacesEvaluated = %d, want %d", st.FacesEvaluated, wantEval)
	}
	if st.RecomputeFactor() <= 1 {
		t.Fatalf("OT recompute factor = %v, want > 1", st.RecomputeFactor())
	}
}

func TestStatsWavefrontPopulated(t *testing.T) {
	b := box.Cube(16)
	phi0, phi1 := kernel.NewState(b)
	phi0.Fill(1)
	v := sched.Variant{Family: sched.BlockedWavefront, Par: sched.WithinBox, TileSize: 4}
	st := Exec(v, phi0, phi1, b, 4)
	if st.Wavefront.Items != 64 || st.Wavefront.Wavefronts != 10 {
		t.Fatalf("wavefront stats = %+v", st.Wavefront)
	}
	if e := st.Wavefront.Efficiency(4); e >= 1 {
		t.Fatalf("wavefront efficiency = %v, want < 1", e)
	}
}

func TestTempStorageOrdering(t *testing.T) {
	// Table I's qualitative ordering at one thread: series needs the most
	// flux temporary storage, fused much less, fused-OT the least per
	// context.
	b := box.Cube(16)
	phi0, phi1 := kernel.NewState(b)
	phi0.Fill(1)
	get := func(v sched.Variant) Stats {
		phi1.Fill(0)
		return Exec(v, phi0, phi1, b, 1)
	}
	series := get(sched.Variant{Family: sched.Series})
	fused := get(sched.Variant{Family: sched.ShiftFuse})
	ot := get(sched.Variant{Family: sched.OverlappedTile, TileSize: 4, Intra: sched.FusedSched})
	if !(series.TempFluxBytes > fused.TempFluxBytes) {
		t.Errorf("series flux temp %d not > fused %d", series.TempFluxBytes, fused.TempFluxBytes)
	}
	if !(fused.TempFluxBytes > ot.TempFluxBytes) {
		t.Errorf("fused flux temp %d not > OT %d", fused.TempFluxBytes, ot.TempFluxBytes)
	}
	// Series: flux temp is C*(N+1)*N^2*8 for the largest face box.
	want := int64(kernel.NComp * 17 * 16 * 16 * 8)
	if series.TempFluxBytes != want {
		t.Errorf("series flux temp = %d, want %d", series.TempFluxBytes, want)
	}
	// Fused serial CLO: Table I's 2 + 2N + 2N^2 values, the depth-2
	// carried rings of the generated runner.
	td, err := perfmodel.TableI(sched.Variant{Family: sched.ShiftFuse}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fused.TempFluxBytes != td.FluxElems*8 {
		t.Errorf("fused flux temp = %d, want %d", fused.TempFluxBytes, td.FluxElems*8)
	}
}

func TestExecLevelBothGranularities(t *testing.T) {
	boxes := []box.Box{
		box.Cube(6),
		box.Cube(6).ShiftVect(ivect.New(100, 0, 0)),
		box.Cube(6).ShiftVect(ivect.New(0, 100, 0)),
	}
	states := NewLevelState(boxes)
	wants := make([]*fab.FAB, len(states))
	for i := range states {
		rnd := rand.New(rand.NewSource(int64(i)))
		states[i].Phi0.Randomize(rnd, 0.5, 1.5)
		wants[i] = fab.New(states[i].Valid, kernel.NComp)
		kernel.Reference(states[i].Phi0, wants[i], states[i].Valid)
	}
	for _, name := range []string{"Baseline-CLO: P>=Box", "Shift-Fuse OT-4: P<Box", "Basic-Sched OT-8: P>=Box"} {
		v, err := sched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range states {
			states[i].Phi1.Fill(0)
		}
		ExecLevel(v, states, 3)
		for i := range states {
			if d, at, c := states[i].Phi1.MaxDiff(wants[i], states[i].Valid); d != 0 {
				t.Errorf("%s box %d: diff %g at %v comp %d", name, i, d, at, c)
			}
		}
	}
}

func TestVelocityFieldMatchesKernel(t *testing.T) {
	b := box.Cube(6)
	phi0, phi1 := makeState(b, 55)
	s := newState(phi0, phi1, b)
	vel := velocityField(s, b, 2, nil)
	for d := 0; d < 3; d++ {
		faces := b.SurroundingFaces(d)
		d := d
		faces.ForEach(func(p ivect.IntVect) {
			want := kernel.FaceAvg(phi0.Comp(kernel.VelComp(d)), s.off0(p), s.str0[d])
			if got := vel[d].Get(p, 0); got != want {
				t.Fatalf("vel[%d] at %v = %v, want %v", d, p, got, want)
			}
		})
	}
}

// TestRepeatedExecWarmArenasBitwise is the pooled-path property behind
// repeated measurement: executing a variant a second time on the same
// state — now drawing warm, dirty arenas from the pool — must produce the
// same bits as a fresh single execution. Every variant's temporaries are
// fully defined before being read, so the garbage left by the first
// execution must never be observable.
func TestRepeatedExecWarmArenasBitwise(t *testing.T) {
	b := box.Cube(12) // ragged tiles for T=8
	phi0, want := makeState(b, 321)
	kernel.Reference(phi0, want, b)
	for _, v := range sched.Studied() {
		v := v
		t.Run(v.Name(), func(t *testing.T) {
			phi1 := fab.New(b, kernel.NComp)
			for rep := 0; rep < 2; rep++ {
				if rep > 0 {
					phi1.Fill(0)
				}
				Exec(v, phi0, phi1, b, 3)
				if d, at, c := phi1.MaxDiff(want, b); d != 0 {
					t.Fatalf("rep %d: diff %g at %v comp %d", rep, d, at, c)
				}
			}
		})
	}
}
