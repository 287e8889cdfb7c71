package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/workload"
)

// randMatmulTree builds a random-but-valid three-level matmul tree from
// bounded fuzz inputs: dimension sizes are products of the chosen factors,
// so the tiling is exact by construction.
func randMatmulTree(f [9]uint8) (*workload.Graph, *Node) {
	pick := func(x uint8) int { return int(x)%4 + 1 } // 1..4
	am, bm, sm := pick(f[0]), pick(f[1]), pick(f[2])
	an, bn, sn := pick(f[3]), pick(f[4]), pick(f[5])
	ak, bk, ck := pick(f[6]), pick(f[7]), pick(f[8])
	m, n, k := am*bm*sm, an*bn*sn, ak*bk*ck
	g := workload.Matmul(m, n, k)
	op := g.Ops[0]
	leaf := Leaf("leaf", op, S("m", sm), S("n", sn), T("k", ck))
	l1 := Tile("l1", 1, Seq, []Loop{T("m", bm), T("n", bn), T("k", bk)}, leaf)
	root := Tile("root", 2, Seq, []Loop{T("m", am), T("n", an), T("k", ak)}, l1)
	return g, root
}

// TestPropertyDMNonNegativeAndBounded: for every random mapping, all
// per-level data movement is non-negative and DRAM reads of each input are
// at least the tensor volume (compulsory traffic) and at most volume times
// the total trip count (full refetch bound).
func TestPropertyDMNonNegativeAndBounded(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [9]uint8) bool {
		g, root := randMatmulTree(f)
		res, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
		if err != nil {
			return false
		}
		for _, dm := range res.DM {
			if dm.Fill < 0 || dm.Read < 0 || dm.Update < 0 {
				return false
			}
		}
		trips := 1.0
		root.Walk(func(n *Node) { trips *= float64(n.TemporalTrips()) })
		for _, tensor := range []string{"A", "B"} {
			vol := float64(g.Tensors[tensor].Volume())
			reads := res.TensorDM[tensor][2].Read
			if reads < vol-0.5 || reads > vol*trips+0.5 {
				return false
			}
		}
		// The output must drain exactly its volume times the reduction
		// trips above its buffer.
		return res.TensorDM["C"][2].Update >= float64(g.Tensors["C"].Volume())-0.5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLatencyBounds: modeled latency respects the compute bound
// (ops / PEs used) and never drops below the compute-only latency.
func TestPropertyLatencyBounds(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [9]uint8) bool {
		g, root := randMatmulTree(f)
		res, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
		if err != nil {
			return false
		}
		if res.Cycles < res.ComputeCycles-1e-9 {
			return false
		}
		peBound := res.MACs / float64(res.TotalPEs*spec.MACsPerPE)
		return res.Cycles >= peBound-1e-9 && !math.IsNaN(res.Cycles) && !math.IsInf(res.Cycles, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDMScalesWithWork: doubling the k extent (more reduction
// work) never decreases total DRAM traffic or latency.
func TestPropertyDMScalesWithWork(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [9]uint8) bool {
		g1, root1 := randMatmulTree(f)
		// Rebuild the same mapping with the leaf k extent doubled.
		pick := func(x uint8) int { return int(x)%4 + 1 }
		am, bm, sm := pick(f[0]), pick(f[1]), pick(f[2])
		an, bn, sn := pick(f[3]), pick(f[4]), pick(f[5])
		ak, bk, ck := pick(f[6]), pick(f[7]), pick(f[8])*2
		g2 := workload.Matmul(am*bm*sm, an*bn*sn, ak*bk*ck)
		leaf := Leaf("leaf", g2.Ops[0], S("m", sm), S("n", sn), T("k", ck))
		l1 := Tile("l1", 1, Seq, []Loop{T("m", bm), T("n", bn), T("k", bk)}, leaf)
		root2 := Tile("root", 2, Seq, []Loop{T("m", am), T("n", an), T("k", ak)}, l1)

		r1, err := Evaluate(root1, g1, spec, Options{SkipCapacityCheck: true})
		if err != nil {
			return false
		}
		r2, err := Evaluate(root2, g2, spec, Options{SkipCapacityCheck: true})
		if err != nil {
			return false
		}
		return r2.DRAMTraffic() >= r1.DRAMTraffic()-0.5 && r2.Cycles >= r1.Cycles-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertySliceExtentsPositive: slice extents are ≥ 1 for arbitrary
// loop assignments, and slice volume equals the product of extents.
func TestPropertySliceExtentsPositive(t *testing.T) {
	g := workload.BatchedConv1D()
	op := g.Ops[0]
	prop := func(ti, tj, tk, si, sj uint8) bool {
		e := func(x uint8) int { return int(x)%6 + 1 }
		leaf := Leaf("tile", op,
			T("i", e(ti)), T("j", e(tj)), T("k", e(tk)),
			S("i", e(si)), S("j", e(sj)),
		)
		tr, err := buildTree(leaf)
		if err != nil {
			return false
		}
		ev := &evaluator{t: tr, s: &Scratch{}}
		for _, acc := range op.Accesses() {
			iix := internTestAccess(tr, acc)
			exts := tr.sliceExtentsIntoI(make([]int64, len(iix)), 0, 0, iix)
			vol := int64(1)
			for _, x := range exts {
				if x < 1 {
					return false
				}
				vol *= x
			}
			if vol != tr.sliceVolumeI(0, 0, iix) {
				return false
			}
			// Per-exec DM is at least the compulsory slice and at most
			// slice × temporal trips.
			dm := ev.perExecDMI(0, 0, iix, false)
			if dm < float64(vol)-0.5 {
				return false
			}
			if dm > float64(vol)*float64(leaf.TemporalTrips())+0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEvaluateDeterministic: evaluation is a pure function of its
// inputs.
func TestPropertyEvaluateDeterministic(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [9]uint8) bool {
		g, root := randMatmulTree(f)
		r1, err1 := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
		r2, err2 := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return r1.Cycles == r2.Cycles && r1.DRAMTraffic() == r2.DRAMTraffic() &&
			r1.EnergyPJ() == r2.EnergyPJ() && r1.PEsUsed == r2.PEsUsed
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCloneEquivalence: a cloned tree evaluates identically and
// mutating the clone does not affect the original.
func TestPropertyCloneEquivalence(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [9]uint8) bool {
		g, root := randMatmulTree(f)
		clone := root.Clone()
		r1, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
		if err != nil {
			return true
		}
		r2, err := Evaluate(clone, g, spec, Options{SkipCapacityCheck: true})
		if err != nil {
			return false
		}
		if r1.Cycles != r2.Cycles {
			return false
		}
		// Mutate the clone; the original must be unchanged.
		clone.Loops = append(clone.Loops, T("m", 1))
		r3, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true})
		return err == nil && r3.Cycles == r1.Cycles
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randConvChainTree builds a random-but-valid fused conv-chain tree: two
// chained convolutions sharing h/w/l tiling under a fusion node whose
// binding is drawn from the fuzz input. Dim sizes are products of the
// chosen factors, so the tiling is exact by construction.
func randConvChainTree(f [8]uint8) (*workload.Graph, *Node) {
	pick := func(x uint8, mod int) int { return int(x)%mod + 1 }
	ah, bh := pick(f[0], 3), pick(f[1], 3)
	aw, bw := pick(f[2], 3), pick(f[3], 3)
	al, bl := pick(f[4], 3), pick(f[5], 2)
	filter := pick(f[6], 2)
	inC := pick(f[7], 3)
	outC2 := pick(f[6]>>2, 4)
	g := workload.ConvChain(workload.ConvChainShape{
		Name: "prop", InC: inC,
		Height: ah * bh, Width: aw * bw,
		OutC1: al * bl, OutC2: outC2, Filter: filter,
	})
	binding := Binding(int(f[0]>>2) % 4)
	leaf1 := Leaf("c1", g.Ops[0],
		T("h", bh), T("w", bw), T("l", bl),
		T("r", filter), T("s", filter), T("c", inC))
	leaf2 := Leaf("c2", g.Ops[1],
		T("h", bh), T("w", bw), T("l", bl),
		T("e", outC2), T("u", filter), T("v", filter))
	fused := Tile("fused", 1, binding, []Loop{T("l", al)}, leaf1, leaf2)
	root := Tile("root", 2, Seq, []Loop{T("h", ah), T("w", aw)}, fused)
	return g, root
}

// randAttentionCoarseTree builds a random-but-valid fused 3-op attention
// tree (QK → Softmax → LV) with the sequence dim factored differently
// between the m and l tilings.
func randAttentionCoarseTree(f [6]uint8) (*workload.Graph, *Node) {
	pick := func(u uint8, mod int) int { return int(u)%mod + 1 }
	x, y, z := pick(f[0], 3), pick(f[1], 3), pick(f[2], 2)
	heads := pick(f[3], 2)
	headDim := 2 * pick(f[4], 2)
	seq := x * y * z
	g := workload.AttentionCoarse(workload.AttentionShape{
		Name: "prop", Heads: heads, SeqLen: seq,
		Hidden: heads * headDim, Batch: 1,
	})
	binding := Binding(int(f[5]) % 4)
	leafQK := Leaf("qk", g.Ops[0], T("m", y*z), T("l", z), T("k", headDim))
	leafSM := Leaf("sm", g.Ops[1], T("m", y*z), T("l", z))
	leafLV := Leaf("lv", g.Ops[2], T("m", y*z), T("l", z), T("n", headDim))
	fused := Tile("fused", 1, binding, []Loop{T("l", x*y)}, leafQK, leafSM, leafLV)
	root := Tile("root", 2, Seq, []Loop{T("h", heads), T("m", x)}, fused)
	return g, root
}

// TestPropertyConvChainDMBounds: the matmul non-negativity, compulsory-
// traffic and refetch bounds hold on fused conv chains — including the
// halo'd input — under all four inter-tile bindings.
func TestPropertyConvChainDMBounds(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [8]uint8) bool {
		g, root := randConvChainTree(f)
		res, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true, SkipPECheck: true})
		if err != nil {
			return false
		}
		for _, dm := range res.DM {
			if dm.Fill < 0 || dm.Read < 0 || dm.Update < 0 {
				return false
			}
		}
		trips := 1.0
		root.Walk(func(n *Node) { trips *= float64(n.TemporalTrips()) })
		for _, tensor := range []string{"Im", "W1", "W2"} {
			vol := float64(g.Tensors[tensor].Volume())
			reads := res.TensorDM[tensor][2].Read
			if reads < vol-0.5 || reads > vol*trips+0.5 {
				return false
			}
		}
		if res.TensorDM["Out"][2].Update < float64(g.Tensors["Out"].Volume())-0.5 {
			return false
		}
		return res.Cycles >= res.ComputeCycles-1e-9 &&
			!math.IsNaN(res.Cycles) && !math.IsInf(res.Cycles, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAttentionDMBounds: the same invariants on fused 3-op
// attention trees, whose intermediate tensors (S, L) are confined to the
// fusion node and must not leak compulsory DRAM traffic checks.
func TestPropertyAttentionDMBounds(t *testing.T) {
	spec := arch.Edge()
	prop := func(f [6]uint8) bool {
		g, root := randAttentionCoarseTree(f)
		res, err := Evaluate(root, g, spec, Options{SkipCapacityCheck: true, SkipPECheck: true})
		if err != nil {
			return false
		}
		for _, dm := range res.DM {
			if dm.Fill < 0 || dm.Read < 0 || dm.Update < 0 {
				return false
			}
		}
		trips := 1.0
		root.Walk(func(n *Node) { trips *= float64(n.TemporalTrips()) })
		for _, tensor := range []string{"Q", "K", "V"} {
			vol := float64(g.Tensors[tensor].Volume())
			reads := res.TensorDM[tensor][2].Read
			if reads < vol-0.5 || reads > vol*trips+0.5 {
				return false
			}
		}
		if res.TensorDM["A"][2].Update < float64(g.Tensors["A"].Volume())-0.5 {
			return false
		}
		return res.Cycles >= res.ComputeCycles-1e-9 &&
			!math.IsNaN(res.Cycles) && !math.IsInf(res.Cycles, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
