package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// table5Library enumerates the paper's Table 5 dataflow templates over a
// representative workload each, the corpus the pipeline-equivalence tests
// sweep.
func table5Library(t testing.TB) map[string]dataflows.Dataflow {
	t.Helper()
	att, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		t.Fatal("attention shape Bert-S not found")
	}
	conv, ok := workload.ConvChainShapeByName("CC1")
	if !ok {
		t.Fatal("conv chain shape CC1 not found")
	}
	spec := arch.Edge()
	return map[string]dataflows.Dataflow{
		"Layerwise":   dataflows.LayerwiseAttention(att, spec),
		"Uni-pipe":    dataflows.UniPipe(att, spec),
		"FLAT-MGran":  dataflows.FLATMGran(att, spec),
		"FLAT-BGran":  dataflows.FLATBGran(att, spec),
		"FLAT-HGran":  dataflows.FLATHGran(att, spec),
		"FLAT-RGran":  dataflows.FLATRGran(att, spec),
		"Chimera":     dataflows.Chimera(att, spec),
		"TileFlow":    dataflows.TileFlowAttention(att, spec),
		"Fused-Layer": dataflows.FusedLayer(conv, spec),
		"ISOS":        dataflows.ISOS(conv, spec),
		"TileFlowCC":  dataflows.TileFlowConv(conv, spec),
	}
}

// variantFactors derives a handful of factor assignments from the default
// by walking each factor through its other divisor choices, deterministic
// and template-agnostic.
func variantFactors(df dataflows.Dataflow, count int) []map[string]int {
	out := []map[string]int{df.DefaultFactors()}
	for _, fs := range df.Factors() {
		for _, c := range fs.Choices() {
			if len(out) > count {
				return out
			}
			f := df.DefaultFactors()
			if f[fs.Key] == c {
				continue
			}
			f[fs.Key] = c
			out = append(out, f)
		}
	}
	return out
}

// TestProgramReuseMatchesEvaluate is the pipeline-equivalence guarantee:
// compiling a template once and re-binding every tiling through
// Program.WithTiling must reproduce the one-shot core.Evaluate result —
// same Result values or same error — across the Table 5 library, including
// under concurrent Evaluate calls on one shared Program (run with -race).
func TestProgramReuseMatchesEvaluate(t *testing.T) {
	spec := arch.Edge()
	for name, df := range table5Library(t) {
		t.Run(name, func(t *testing.T) {
			defRoot, err := df.Build(df.DefaultFactors())
			if err != nil {
				t.Fatal(err)
			}
			prog, err := core.Compile(defRoot, df.Graph(), spec)
			if err != nil {
				t.Fatal(err)
			}
			for vi, factors := range variantFactors(df, 6) {
				root, err := df.Build(factors)
				if err != nil {
					continue // variant outside the template's legal space
				}
				cold, coldErr := core.Evaluate(root, df.Graph(), spec, core.Options{})
				p, err := prog.WithTiling(root)
				if err != nil {
					t.Fatalf("variant %d: WithTiling: %v", vi, err)
				}
				const workers = 8
				var wg sync.WaitGroup
				errs := make([]error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						got, gotErr := p.Evaluate(context.Background(), core.Options{})
						if (gotErr == nil) != (coldErr == nil) {
							errs[w] = fmt.Errorf("variant %d: compiled err=%v, cold err=%v", vi, gotErr, coldErr)
							return
						}
						if coldErr != nil {
							if gotErr.Error() != coldErr.Error() {
								errs[w] = fmt.Errorf("variant %d: compiled err %q, cold err %q", vi, gotErr, coldErr)
							}
							return
						}
						if !reflect.DeepEqual(got, cold) {
							errs[w] = fmt.Errorf("variant %d: compiled result differs from cold Evaluate", vi)
						}
					}(w)
				}
				wg.Wait()
				for _, e := range errs {
					if e != nil {
						t.Fatal(e)
					}
				}
			}
		})
	}
}

// TestWithTilingRejectsMismatch pins the re-bind contract: a tree whose
// structure (shape, level, binding, or operator) differs from the compiled
// one is refused with ErrInvalidMapping instead of silently evaluating
// against the wrong tables.
func TestWithTilingRejectsMismatch(t *testing.T) {
	att, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		t.Fatal("attention shape Bert-S not found")
	}
	spec := arch.Edge()
	df := dataflows.FLATRGran(att, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(root, df.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}

	other := dataflows.LayerwiseAttention(att, spec)
	otherRoot, err := other.Build(other.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.WithTiling(otherRoot); !errors.Is(err, core.ErrInvalidMapping) {
		t.Errorf("WithTiling(different template) err = %v, want ErrInvalidMapping", err)
	}

	leveled := root.Clone()
	leveled.Level--
	if _, err := prog.WithTiling(leveled); !errors.Is(err, core.ErrInvalidMapping) {
		t.Errorf("WithTiling(changed level) err = %v, want ErrInvalidMapping", err)
	}

	// A clone with only loop extents changed is accepted (tiling re-bind),
	// even when the new tiling is itself invalid — that is Evaluate's job.
	retiled := root.Clone()
	retiled.Loops = append([]core.Loop(nil), root.Loops...)
	if _, err := prog.WithTiling(retiled); err != nil {
		t.Errorf("WithTiling(clone) err = %v, want nil", err)
	}
}

// TestProgramSignatureStableAcrossTilings: the structure signature — the
// evaluation service's batch grouping key — ignores loop nests.
func TestProgramSignatureStableAcrossTilings(t *testing.T) {
	for name, df := range table5Library(t) {
		var sig string
		for vi, factors := range variantFactors(df, 6) {
			root, err := df.Build(factors)
			if err != nil {
				continue
			}
			s := core.StructureSignature(root)
			if vi == 0 {
				sig = s
			} else if s != sig {
				t.Errorf("%s: variant %d signature differs:\n%s\nvs\n%s", name, vi, s, sig)
			}
		}
	}
}

// TestEvaluateAllocsCompiled guards the compiled hot path's allocation
// budget: re-evaluating through a compiled Program must stay well under
// the cold path (which pays tree compilation per call).
func TestEvaluateAllocsCompiled(t *testing.T) {
	att, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		t.Fatal("attention shape Bert-S not found")
	}
	spec := arch.Edge()
	df := dataflows.FLATRGran(att, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.Compile(root, df.Graph(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := prog.Evaluate(ctx, core.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// The pre-refactor monolithic Evaluate ran ~786 allocs on this design
	// point; the compiled path must stay far below it.
	const budget = 400
	if allocs > budget {
		t.Errorf("compiled Evaluate allocates %.0f/op, budget %d", allocs, budget)
	}
}

// TestCloneDeepCopiesLoops pins Node.Clone's deep copy of the Loops slice:
// mutating a clone's loop extents must not leak into the original (mappers
// clone a template tree and retile it in place).
func TestCloneDeepCopiesLoops(t *testing.T) {
	att, ok := workload.AttentionShapeByName("Bert-S")
	if !ok {
		t.Fatal("attention shape Bert-S not found")
	}
	spec := arch.Edge()
	df := dataflows.FLATRGran(att, spec)
	root, err := df.Build(df.DefaultFactors())
	if err != nil {
		t.Fatal(err)
	}
	want := core.StructureSignature(root)
	var wantLoops [][]core.Loop
	root.Walk(func(n *core.Node) {
		wantLoops = append(wantLoops, append([]core.Loop(nil), n.Loops...))
	})

	clone := root.Clone()
	clone.Walk(func(n *core.Node) {
		for i := range n.Loops {
			n.Loops[i].Extent = 999
		}
	})

	if got := core.StructureSignature(root); got != want {
		t.Fatalf("clone mutation changed the original's structure")
	}
	var i int
	root.Walk(func(n *core.Node) {
		if !reflect.DeepEqual(n.Loops, wantLoops[i]) {
			t.Fatalf("node %q loops mutated through clone: %v != %v", n.Name, n.Loops, wantLoops[i])
		}
		i++
	})
}
