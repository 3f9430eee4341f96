package codegen

import (
	"encoding/json"
	"reflect"
	"testing"

	"stencilsched/internal/box"
	"stencilsched/internal/ivect"
	"stencilsched/internal/kernel"
)

// TestBoxDomainDescBindMatchesDomainOf checks that binding the parametric
// domain description to a concrete box scans exactly the points the
// numeric domain builder produces — the bridge between the serializable
// descriptions and the interpreter.
func TestBoxDomainDescBindMatchesDomainOf(t *testing.T) {
	b := box.New(ivect.New(-1, 2, 0), ivect.New(3, 5, 4))
	vals := BoxParamValues(b)
	for d := 0; d < 3; d++ {
		want := map[[3]int]bool{}
		domainOf(b.SurroundingFaces(d)).Scan(func(x []int) {
			want[[3]int{x[0], x[1], x[2]}] = true
		})
		got := map[[3]int]bool{}
		BoxDomainDesc(0, faceExt(d)).Bind(vals...).Set().Scan(func(x []int) {
			got[[3]int{x[0], x[1], x[2]}] = true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("d=%d: bound desc scans %d points, domainOf %d", d, len(got), len(want))
		}
	}
}

// TestDescJSONRoundTrip pins serializability: a program description
// survives a JSON round trip bit-for-bit, so schedule families can be
// stored and diffed as data.
func TestDescJSONRoundTrip(t *testing.T) {
	for d := 0; d < 3; d++ {
		for _, pd := range []ProgramDesc{SeriesDesc(d, false), SeriesDesc(d, true), RowFusedDesc(d)} {
			data, err := json.Marshal(pd)
			if err != nil {
				t.Fatal(err)
			}
			var back ProgramDesc
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pd, back) {
				t.Errorf("%s: description changed across JSON round trip", pd.Name)
			}
		}
	}
}

// TestDescSchedulesAreScatterForm checks every exemplar statement schedule
// against the scatter-form contract the compiler lowers, and that the
// row-fused accumulation carries its +1 shift at the fused level.
func TestDescSchedulesAreScatterForm(t *testing.T) {
	for d := 0; d < 3; d++ {
		for _, pd := range []ProgramDesc{SeriesDesc(d, false), SeriesDesc(d, true), RowFusedDesc(d)} {
			if len(pd.Stmts) != 3*kernel.NComp+1 {
				t.Fatalf("%s: %d statements", pd.Name, len(pd.Stmts))
			}
			for _, st := range pd.Stmts {
				if err := st.Sched.ScatterForm(3); err != nil {
					t.Errorf("%s/%s: %v", pd.Name, st.Name, err)
				}
			}
		}
		// CLI: every statement of a pass shares the pass's top-level
		// position and the whole nest, sequenced by component innermost.
		for _, st := range SeriesDesc(d, true).Stmts {
			pass := map[string]int{"flux1": 0, "vel": 1, "flux2": 2, "acc": 3}[st.Macro]
			want := []int{pass, 0, 0, max(st.Comp, 0)}
			for lvl, p := range want {
				if got := st.Sched.Pos(lvl); got != p {
					t.Errorf("d=%d CLI %s c%d: position %d = %d, want %d", d, st.Name, st.Comp, lvl, got, p)
				}
			}
		}
		rf := RowFusedDesc(d)
		lvl := fusedLevel(d)
		acc := rf.Stmts[len(rf.Stmts)-1]
		if got := acc.Sched.ShiftOf(lvl); got != 1 {
			t.Errorf("d=%d: acc shift at fused level = %d, want 1", d, got)
		}
		flux := rf.Stmts[0]
		if got := flux.Sched.ShiftOf(lvl); got != 0 {
			t.Errorf("d=%d: flux1 shift at fused level = %d, want 0", d, got)
		}
	}
}
