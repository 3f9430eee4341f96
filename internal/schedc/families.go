package schedc

import (
	"fmt"

	"stencilsched/internal/codegen"
	"stencilsched/internal/kernel"
)

// Families returns every schedule family the compiler ships generated
// code for: the two CodeGen+ exemplar schedules (series and row-fused,
// from the same descriptions the interpreter executes), the series
// schedule with the component loop inside (unregistered: it runs the
// Baseline-CLI variants), the Shift-Fuse and overlapped-tile Basic-Sched
// OT schedules (OT registered at edge 16), and the temporal-blocking
// families. Each family is one emitted runner; a tiled runner takes its
// tile edge as an argument and the registered edges are bound in
// entries.gen.go. The series runners split their passes into z slabs
// over threads (see Family.zSlabs); the others run serially within the
// box, their parallelism being across boxes.
func Families() []Family {
	series := Family{
		Entries:  []Entry{{Name: "CodeGen series (generated)"}},
		FuncName: "RunSeries",
		FileName: "series.gen.go",
		Comment: "RunSeries executes the original series-of-loops schedule (Fig. 6,\n" +
			"component loop outside) compiled from codegen.SeriesDesc: every\n" +
			"statement a full pass over its face or cell box, with full-array\n" +
			"flux and velocity temporaries from the scratch arena.",
	}
	seriesCLI := Family{
		FuncName: "RunSeriesCLI",
		FileName: "series_cli.gen.go",
		Comment: "RunSeriesCLI executes the series-of-loops schedule with the\n" +
			"component loop inside, compiled from codegen.SeriesDesc: the\n" +
			"same four full passes per direction as RunSeries, each sweeping\n" +
			"all components under the x loop.",
	}
	rowfused := Family{
		Entries:  []Entry{{Name: "CodeGen row-fused (generated)"}},
		FuncName: "RunRowFused",
		FileName: "rowfused.gen.go",
		Comment: "RunRowFused executes the shifted-and-fused exemplar schedule\n" +
			"compiled from codegen.RowFusedDesc: per direction, all statements\n" +
			"fuse at the direction's own loop level with the accumulation\n" +
			"shifted by one, legalizing two-deep ring storage (a scalar, row,\n" +
			"or plane per parity — Table I's shrunken temporaries).",
	}
	for d := 0; d < 3; d++ {
		series.Progs = append(series.Progs, codegen.SeriesDesc(d, false))
		seriesCLI.Progs = append(seriesCLI.Progs, codegen.SeriesDesc(d, true))
		rowfused.Progs = append(rowfused.Progs, codegen.RowFusedDesc(d))
	}
	fams := []Family{
		series,
		seriesCLI,
		rowfused,
		{
			Entries:  []Entry{{Name: "Shift-Fuse (generated)"}},
			FuncName: "RunShiftFuse",
			FileName: "shiftfuse.gen.go",
			Comment: "RunShiftFuse executes the fully shifted-and-fused schedule of\n" +
				"Section IV-B compiled from its description: three velocity\n" +
				"pre-passes, then one sweep per component over the cells in which\n" +
				"the three face fluxes are computed one iteration ahead (shift -1)\n" +
				"and consumed from parity rings — the carried scalar/row/plane\n" +
				"caches of the hand-written family, derived from the storage rule.",
			Progs: []codegen.ProgramDesc{ShiftFuseProg()},
		},
		{
			Entries:  []Entry{{Name: "Basic-Sched OT-16 (generated)", Edge: 16}},
			FuncName: "RunOT",
			FileName: "ot.gen.go",
			Comment: "RunOT executes the overlapped-tile schedule of Section IV-D with\n" +
				"the series intra-tile schedule on E^3 tiles (E <= 0: one whole-box\n" +
				"tile), compiled from a tiled description: tile-origin loops\n" +
				"stepping by E from the box's low corner, tile-local temporaries\n" +
				"allocated per tile from the arena, and every tile evaluating all\n" +
				"faces its cells consume (the recomputation trade).",
			Progs: []codegen.ProgramDesc{OTProg()},
		},
	}
	return append(fams, temporalFamilies()...)
}

// temporalFamilies returns the temporal-blocking families: K Euler steps
// fused per sweep (the time axis in the When clause), one runner per K
// with the tile edge of the working set as its argument, registered at
// the whole box and at 16^3 and 32^3 tiles. K=1 is included deliberately
// — it shares the delta contract and storage shape of the deeper
// variants, so the autotuner compares K fairly within one family line.
// K stays a generation-time constant: it changes the loop structure, not
// only constants.
func temporalFamilies() []Family {
	var fams []Family
	for _, k := range []int{1, 2, 4} {
		f := Family{
			FuncName:  fmt.Sprintf("RunTemporalK%d", k),
			FileName:  fmt.Sprintf("temporal_k%d.gen.go", k),
			TemporalK: k,
			Progs:     []codegen.ProgramDesc{codegen.TemporalProg(k, true)},
		}
		for _, edge := range []int{0, 16, 32} {
			name := fmt.Sprintf("Temporal K%d (generated)", k)
			if edge > 0 {
				name = fmt.Sprintf("Temporal K%d OT-%d (generated)", k, edge)
			}
			f.Entries = append(f.Entries, Entry{Name: name, Edge: edge})
		}
		f.Comment = fmt.Sprintf(
			"%s executes %d explicit Euler steps per sweep (temporal blocking)\n"+
				"compiled from codegen.TemporalProg: the k axis of the When clause\n"+
				"shrinks each sub-step's region by NGhost (the wavefront in time),\n"+
				"on E^3 tiles (E <= 0: one whole-box tile) with tile-local\n"+
				"temporaries grown by the deepest sub-step's reach. phi1\n"+
				"accumulates the K-step delta state_K - phi0, bitwise identical to\n"+
				"composing kernel.Reference %d times.",
			f.FuncName, k, k)
		fams = append(fams, f)
	}
	return fams
}

// fext is the face-box extension of direction d.
func fext(d int) [3]int {
	var e [3]int
	e[d] = 1
	return e
}

var dirName = [3]string{"X", "Y", "Z"}

// innerAxes lists the axes stored per ring slot for a ring along
// direction d in the (z, y, x) nest: exactly the axes iterated inside
// d's own loop level, innermost first — which yields the scalar (x),
// row (y), and plane (z) carried caches of the hand-written sweeps.
func innerAxes(d int) []int {
	var inner []int
	for a := 0; a < d; a++ {
		inner = append(inner, a)
	}
	return inner
}

// ShiftFuseProg describes the fully fused schedule: velocity pre-passes
// at the first three top-level positions, then per component (CLO, the
// studied order) a fused sweep in which fluxX/fluxY/fluxZ are shifted by
// -1 at their direction's loop level and the unshifted accumulation
// reads both ring parities.
func ShiftFuseProg() codegen.ProgramDesc {
	pd := codegen.ProgramDesc{
		Name: "shiftfuse",
		Vars: codegen.LoopVarNames(),
	}
	var velB, fluxB [3]string
	for d := 0; d < 3; d++ {
		velB[d] = "vel" + dirName[d]
		fluxB[d] = "flux" + dirName[d]
		pd.Buffers = append(pd.Buffers,
			codegen.BufferDesc{Name: velB[d], Kind: "full", Dir: d, Comps: 1},
			codegen.BufferDesc{Name: fluxB[d], Kind: "ring", Dir: d, Comps: 1, Depth: 2, Inner: innerAxes(d)},
		)
	}
	cells := codegen.BoxDomainDesc(0, [3]int{})
	for d := 0; d < 3; d++ {
		pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
			Name: "vel" + dirName[d], Macro: "flux1", Dir: d, Comp: kernel.VelComp(d),
			Bufs:   []string{velB[d]},
			Domain: codegen.BoxDomainDesc(0, fext(d)),
			Sched:  codegen.ScatterDesc(3, d, 0, 0, 0),
		})
	}
	for c := 0; c < kernel.NComp; c++ {
		top := 3 + c
		for d := 0; d < 3; d++ {
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("flux%s-c%d", dirName[d], c), Macro: "fluxdir", Dir: d, Comp: c,
				Bufs:   []string{velB[d], fluxB[d]},
				Domain: codegen.BoxDomainDesc(0, fext(d)),
				Sched:  codegen.ScatterDesc(3, top, 0, 0, d).Shift(2-d, -1),
			})
		}
		pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
			Name: fmt.Sprintf("acc-c%d", c), Macro: "accfused", Dir: 0, Comp: c,
			Bufs:   []string{fluxB[0], fluxB[1], fluxB[2]},
			Domain: cells,
			Sched:  codegen.ScatterDesc(3, top, 0, 0, 3),
		})
	}
	return pd
}

// OTProg describes Basic-Sched OT: three tile-origin loops, and within
// each tile the full series schedule per direction over the tile's own
// face and cell boxes, with tile-local full-array temporaries (allocated
// at loop depth 3, rewound per tile).
func OTProg() codegen.ProgramDesc {
	pd := codegen.ProgramDesc{
		Name:  "ot",
		Vars:  append(codegen.TileVarNames(), codegen.LoopVarNames()...),
		Tiled: true,
	}
	var velB, fluxB [3]string
	for d := 0; d < 3; d++ {
		velB[d] = "vel" + dirName[d]
		fluxB[d] = "flux" + dirName[d]
		pd.Buffers = append(pd.Buffers,
			codegen.BufferDesc{Name: fluxB[d], Kind: "full", Dir: d, Comps: kernel.NComp, Level: 3},
			codegen.BufferDesc{Name: velB[d], Kind: "full", Dir: d, Comps: 1, Level: 3},
		)
	}
	cells := codegen.TileDomainDesc(false, 0, 0, [3]int{}, 0)
	seq := 0
	sched := func() codegen.ScheduleDesc {
		s := codegen.ScatterDesc(6, 0, 0, 0, seq, 0, 0, 0)
		seq++
		return s
	}
	for d := 0; d < 3; d++ {
		faces := codegen.TileDomainDesc(false, 0, 0, fext(d), 0)
		for c := 0; c < kernel.NComp; c++ {
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("flux1%s-c%d", dirName[d], c), Macro: "flux1", Dir: d, Comp: c,
				Bufs: []string{fluxB[d]}, Domain: faces, Sched: sched(),
			})
		}
		pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
			Name: "vel" + dirName[d], Macro: "vel", Dir: d, Comp: -1,
			Bufs: []string{fluxB[d], velB[d]}, Domain: faces, Sched: sched(),
		})
		for c := 0; c < kernel.NComp; c++ {
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("flux2%s-c%d", dirName[d], c), Macro: "flux2", Dir: d, Comp: c,
				Bufs: []string{velB[d], fluxB[d]}, Domain: faces, Sched: sched(),
			})
			pd.Stmts = append(pd.Stmts, codegen.StmtDesc{
				Name: fmt.Sprintf("acc%s-c%d", dirName[d], c), Macro: "acc", Dir: d, Comp: c,
				Bufs: []string{fluxB[d]}, Domain: cells, Sched: sched(),
			})
		}
	}
	return pd
}
