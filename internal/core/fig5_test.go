package core

import (
	"testing"

	"repro/internal/workload"
)

// TestFigure5SingleTileDM reproduces the worked example of Figure 5: a
// batched 1D convolution tile with temporal loops (i1=3, j1=3) over spatial
// loops (i0=4, j0=4, k0=3). The paper derives a total data-movement volume
// of 168 elements for tensor A.
func TestFigure5SingleTileDM(t *testing.T) {
	g := workload.BatchedConv1D()
	op := g.Ops[0]
	leaf := Leaf("tile", op,
		T("i", 3), T("j", 3),
		S("i", 4), S("j", 4), S("k", 3),
	)
	tr, err := buildTree(leaf)
	if err != nil {
		t.Fatal(err)
	}

	var accA, accB workload.Access
	for _, r := range op.Reads {
		switch r.Tensor {
		case "A":
			accA = r
		case "B":
			accB = r
		}
	}

	iA, iB, iC := internTestAccess(tr, accA), internTestAccess(tr, accB), internTestAccess(tr, op.Write)

	// Slice extents: A is 4×6, B is 4×3, C is 4×4 (Fig 5).
	exts := func(iix [][]iterm) []int64 {
		return tr.sliceExtentsIntoI(make([]int64, len(iix)), 0, 0, iix)
	}
	if got := exts(iA); got[0] != 4 || got[1] != 6 {
		t.Errorf("slice extents of A = %v, want [4 6]", got)
	}
	if got := exts(iB); got[0] != 4 || got[1] != 3 {
		t.Errorf("slice extents of B = %v, want [4 3]", got)
	}
	if got := exts(iC); got[0] != 4 || got[1] != 4 {
		t.Errorf("slice extents of C = %v, want [4 4]", got)
	}

	e := &evaluator{t: tr, s: &Scratch{}}
	// The headline number: DM_A = 168 elements.
	if got := e.perExecDMI(0, 0, iA, false); got != 168 {
		t.Errorf("perExecDMI(A) = %v, want 168", got)
	}
	// B is fully reused along j: 12 compulsory + 2×12 when i advances.
	if got := e.perExecDMI(0, 0, iB, false); got != 36 {
		t.Errorf("perExecDMI(B) = %v, want 36", got)
	}
	// C: every output element written exactly once, 12×12 = 144.
	if got := e.perExecDMI(0, 0, iC, false); got != 144 {
		t.Errorf("perExecDMI(C) = %v, want 144", got)
	}
}

// TestFigure5LoopOrderMatters checks that swapping the temporal loop order
// changes reuse: iterating i innermost breaks B's full reuse.
func TestFigure5LoopOrderMatters(t *testing.T) {
	g := workload.BatchedConv1D()
	op := g.Ops[0]
	leaf := Leaf("tile", op,
		T("j", 3), T("i", 3), // swapped
		S("i", 4), S("j", 4), S("k", 3),
	)
	tr, err := buildTree(leaf)
	if err != nil {
		t.Fatal(err)
	}
	var accB workload.Access
	for _, r := range op.Reads {
		if r.Tensor == "B" {
			accB = r
		}
	}
	// With i innermost, B's slice changes on every i-step: the i boundary
	// occurs (3−1)·3 = 6 times moving 12 fresh elements, and the j
	// boundary resets i (full 12-element refetch) twice.
	e := &evaluator{t: tr, s: &Scratch{}}
	got := e.perExecDMI(0, 0, internTestAccess(tr, accB), false)
	want := 12.0 + 6*12 + 2*12
	if got != want {
		t.Errorf("perExecDMI(B) with i innermost = %v, want %v", got, want)
	}
}

// internTestAccess interns an access against tr's dim universe, as Compile
// does for every leaf access.
func internTestAccess(tr *tree, acc workload.Access) [][]iterm {
	iix, _, _ := internAccessInto(tr.st, acc, make([][]iterm, len(acc.Index)), make([]iterm, accessTerms(acc)))
	return iix
}
