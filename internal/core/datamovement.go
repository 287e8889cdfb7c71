package core

import (
	"repro/internal/workload"
)

// iterm is one affine term of an access index with the dim interned: the
// form the hot volume formulas iterate so they compare int32 ids instead of
// hashing strings. dim is -1 for dims outside the structure's universe,
// which match no loop — exactly the string behavior, since every valid
// loop dim is an operator dim and therefore interned.
type iterm struct {
	dim  int32
	coef int64
}

// internAccessInto interns an access's index expression against the
// structure's dim universe, carving the index rows and their terms out of
// caller-owned slabs. It returns the interned index and the slab tails it
// left unused.
func internAccessInto(st *structure, acc workload.Access, rows [][]iterm, terms []iterm) ([][]iterm, [][]iterm, []iterm) {
	iix := rows[:len(acc.Index):len(acc.Index)]
	for i, ix := range acc.Index {
		row := terms[:len(ix.Terms):len(ix.Terms)]
		for j, term := range ix.Terms {
			row[j] = iterm{dim: st.dimOf(term.Dim), coef: int64(term.Coef)}
		}
		iix[i] = row
		terms = terms[len(ix.Terms):]
	}
	return iix, rows[len(acc.Index):], terms
}

// accessTerms counts the affine terms of an access's index expressions.
func accessTerms(acc workload.Access) int {
	n := 0
	for _, ix := range acc.Index {
		n += len(ix.Terms)
	}
	return n
}

// accessAt returns an operator's k-th access, reads first then the write:
// the order a leaf's tensor groups take their first uses in.
func accessAt(op *workload.Operator, k int) (acc workload.Access, read bool) {
	if k < len(op.Reads) {
		return op.Reads[k], true
	}
	return op.Write, false
}

// sliceExtentsIntoI computes the per-tensor-dimension slice extents of an
// interned access at node n (along the path to leaf), per Sec 5.1.1: for
// each dimension the extent e−b stays constant over time steps and equals
// 1 + Σ coef·(stepCovID(dim)−1) over the affine terms of the index
// expression. The result is written into dst, which must have len(iix)
// capacity.
func (t *tree) sliceExtentsIntoI(dst []int64, n, leaf int, iix [][]iterm) []int64 {
	dst = dst[:len(iix)]
	for i, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.stepCovID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		dst[i] = e
	}
	return dst
}

// sliceVolumeI is the product of the slice extents: the size in words of
// the data slice one time step of node n touches for this access.
func (t *tree) sliceVolumeI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.stepCovID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// sliceVolumePerInstanceI is the slice volume seen by ONE hardware instance
// at the node's level: the node's own spatial loops partition the slice
// across instances, so their extents are excluded. Used for per-instance
// buffer footprints.
func (t *tree) sliceVolumePerInstanceI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.covBelowID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// coveredVolumePerInstanceI is the swept footprint one hardware instance at
// the node's level touches over a full execution: full coverage of the
// node's temporal loops and everything below, excluding the node's own
// spatial partitioning. Used by the wrap-around retention test.
func (t *tree) coveredVolumePerInstanceI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			cov := t.covAtID(n, leaf, term.dim) / max(1, t.spatialExtentAt(n, term.dim))
			e += term.coef * int64(cov-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// coveredVolumeI is the slice volume with extents computed from the full
// coverage of node n (all its loops, not one step): the distinct data the
// whole execution of n touches through this access.
func (t *tree) coveredVolumeI(n, leaf int, iix [][]iterm) int64 {
	v := int64(1)
	for _, terms := range iix {
		e := int64(1)
		for _, term := range terms {
			e += term.coef * int64(t.covAtID(n, leaf, term.dim)-1)
		}
		if e < 1 {
			e = 1
		}
		v *= e
	}
	return v
}

// stridesIntoI computes, for each temporal loop of n (outer..inner), the
// number of elements of its dimension that one advance of that loop shifts
// the slice window by: the step coverage of the dimension times the extents
// of any inner temporal loops over the same dimension at this node.
// tldims[k] is the interned dim of tloops[k]. Results are appended into
// dst.
func (t *tree) stridesIntoI(dst []int64, n, leaf int, tloops []Loop, tldims []int32) []int64 {
	for k := range tloops {
		s := int64(t.stepCovID(n, leaf, tldims[k]))
		for j := k + 1; j < len(tloops); j++ {
			if tldims[j] == tldims[k] {
				s *= int64(tloops[j].Extent)
			}
		}
		dst = append(dst, s)
	}
	return dst
}

// perExecDMI implements the single-tile data-movement formula of Sec 5.1.1:
// the total volume moved across the node's upper boundary during one
// complete execution of node n for the given access. It equals the
// compulsory full slice plus, for every temporal-loop boundary t_k, the
// slice set-difference when loop k advances one chunk and all loops inner
// to it reset, weighted by how often that boundary occurs:
//
//	DM = |Slice| + Σ_k (e_k−1)·Π_{m outer of k} e_m · Δ_k
//
// This reproduces the worked Figure 5 example (168 elements for tensor A).
//
// retain enables wrap-around retention: when a boundary's advancing loop
// does not index the tensor, the "new" slice revisits data the current
// sweep already touched, and if the whole swept footprint fits comfortably
// in this node's buffer the revisit is a hit, not a refetch. (Without a
// capacity model this is the paper's documented overestimation — "it
// assumes data replacement happens for every outer iteration"; with one,
// the model matches the polyhedron baselines on single operators.)
//
// All intermediate vectors live in the evaluator's scratch arena, so
// steady-state calls allocate nothing.
func (e *evaluator) perExecDMI(n, leaf int, iix [][]iterm, retain bool) float64 {
	t, s := e.t, e.s
	if cap(s.exts) < len(iix) {
		s.exts = make([]int64, len(iix))
	}
	exts := t.sliceExtentsIntoI(s.exts[:0], n, leaf, iix)
	vfull := int64(1)
	for _, ext := range exts {
		vfull *= ext
	}
	s.tloops = s.tloops[:0]
	s.tldims = s.tldims[:0]
	ld := t.ldim[n]
	for li, l := range t.nodeSet[n].Loops {
		if l.Kind == Temporal {
			s.tloops = append(s.tloops, l)
			s.tldims = append(s.tldims, ld[li])
		}
	}
	tloops, tldims := s.tloops, s.tldims
	if len(tloops) == 0 {
		return float64(vfull)
	}
	s.strides = t.stridesIntoI(s.strides[:0], n, leaf, tloops, tldims)
	strides := s.strides

	total := float64(vfull)
	outerProd := int64(1) // effective product of extents of loops outer of k
	for k, lk := range tloops {
		if retain {
			// Loops that do not index the tensor neither move its slice
			// nor — under retention — force inner sweeps to refetch:
			// their effective trip count for movement collapses to 1.
			advances := false
			for _, terms := range iix {
				for _, term := range terms {
					if term.dim == tldims[k] {
						advances = true
					}
				}
			}
			if !advances {
				continue
			}
		}
		// Overlap of the new slice with the old one, per tensor dim: the
		// net shift of each iteration dimension when loop k advances and
		// loops inner to it wrap back to their lower bounds is the
		// k-stride on lk.Dim minus the full inner sweeps of the dim.
		overlap := int64(1)
		for i, terms := range iix {
			var d int64
			for _, term := range terms {
				var shift int64
				if term.dim == tldims[k] {
					shift = strides[k]
				}
				for j := k + 1; j < len(tloops); j++ {
					if tldims[j] == term.dim {
						shift -= int64(tloops[j].Extent-1) * strides[j]
					}
				}
				d += term.coef * shift
			}
			if d < 0 {
				d = -d
			}
			ov := exts[i] - d
			if ov < 0 {
				ov = 0
			}
			overlap *= ov
		}
		diff := float64(vfull - overlap)
		mult := float64(int64(lk.Extent-1) * outerProd)
		total += mult * diff
		outerProd *= int64(lk.Extent)
	}
	return total
}

// accessRef is one (leaf, access) occurrence of a tensor in a subtree. The
// leaf is identified by its pre-order id so the reference stays valid
// across tiling re-binds. iix is the interned form of acc.Index and mask
// the access's iteration dims over interned dim ids; both are computed once
// per leaf and shared read-only by every node's group that folds this
// reference in.
type accessRef struct {
	leafID int
	acc    workload.Access
	iix    [][]iterm
	mask   []bool
	// maxWords bounds coveredVolumePerInstance over all valid tilings:
	// validation pins each dim's full leaf-to-root coverage to exactly the
	// operator's dim size, so no sub-path coverage can exceed it. When the
	// bound already fits the retention budget the evaluator skips the
	// per-tiling covered-volume walk.
	maxWords int64
}

// accessMaxWords computes the accessRef.maxWords bound from the operator's
// dim sizes: per tensor dim, extents peak at 1 + Σ coef·(size−1) over the
// positive-coefficient terms (negative terms only shrink the extent, and
// extents clamp at 1).
func accessMaxWords(op *workload.Operator, acc workload.Access) int64 {
	v := int64(1)
	for _, ix := range acc.Index {
		e := int64(1)
		for _, term := range ix.Terms {
			if term.Coef <= 0 {
				continue
			}
			size := op.DimSize(term.Dim)
			if size < 1 {
				size = 1
			}
			e += int64(term.Coef) * int64(size-1)
		}
		v *= e
	}
	return v
}

// tensorGroup aggregates every access to one tensor by operators in a
// node's subtree, split by direction, with the per-direction invocation dim
// masks and the Seq-eviction verdict precomputed at compile time.
type tensorGroup struct {
	tensor string
	// tix is the tensor's per-Compile index (structure.tensors).
	tix    int
	reads  []accessRef
	writes []accessRef
	// readMask is the union of the read accesses' iteration dims, over
	// interned dim ids: ancestor loops over other dims leave the staged
	// slices unchanged, so only these dims multiply fill invocations.
	// writeMask additionally includes the writers' reduction dims, which
	// force partial-sum round trips.
	readMask, writeMask []bool
	// tensorID indexes the Program's attributed-tensor list (the scratch
	// arena's flat per-tensor rows), or -1 when this group's traffic is
	// never attributed. Assigned by Compile; -1 until then.
	tensorID int
	// evicts marks Seq eviction (Sec 5.1.2): under Seq a tile's slices are
	// evicted unless the following tile needs them, so a tensor used by a
	// strict subset of the children loses all reuse at this node.
	evicts bool
}

// buildStructure computes the per-node tensor access groups of an indexed
// tree, with their invocation masks and Seq-eviction verdicts, in one
// bottom-up pass over the pre-order ids (descending id order visits
// children before parents). It runs on interned ids throughout: tensors get
// per-Compile indexes in first-access order, each leaf access is interned
// once, and a node's groups fold its children's groups by tensor index. A
// counting pass sizes one slab each for the groups, the access references,
// the masks and the interned index terms, so the cost is a fixed handful
// of allocations whatever the tree size.
func buildStructure(t *tree) {
	st := t.st
	nn, nd := len(t.nodeSet), st.numDims
	nrefs, nidx, nterms := 0, 0, 0
	for _, n := range t.nodeSet {
		if !n.IsLeaf() {
			continue
		}
		for k := 0; k <= len(n.Op.Reads); k++ {
			acc, _ := accessAt(n.Op, k)
			nidx += len(acc.Index)
			nterms += accessTerms(acc)
		}
		nrefs += len(n.Op.Reads) + 1
	}
	// ints holds each leaf access's tensor index (pre-order, reads then
	// write), the per-tensor group slot of the node being built, the
	// per-slot read/write counts, and the per-node reference and group
	// counts.
	ints := make([]int32, 4*nrefs+2*nn)
	atix, slot, cnt := ints[:nrefs], ints[nrefs:2*nrefs], ints[2*nrefs:4*nrefs]
	nr, ng := ints[4*nrefs:4*nrefs+nn], ints[4*nrefs+nn:]
	st.tensors = make([]string, 0, nrefs)
	a := 0
	for _, n := range t.nodeSet {
		if !n.IsLeaf() {
			continue
		}
		for k := 0; k <= len(n.Op.Reads); k++ {
			acc, _ := accessAt(n.Op, k)
			x := st.tensorOf(acc.Tensor)
			if x < 0 {
				x = len(st.tensors)
				st.tensors = append(st.tensors, acc.Tensor)
			}
			atix[a] = int32(x)
			a++
		}
	}
	nt := len(st.tensors)
	for x := range slot {
		slot[x] = -1
	}

	// has[id*nt+x] records whether node id's subtree accesses tensor x:
	// the group count, and the Seq-eviction membership test.
	has := make([]bool, nn*nt)
	totalGroups, totalRefs := 0, 0
	a = nrefs
	for id := nn - 1; id >= 0; id-- {
		row := has[id*nt : (id+1)*nt]
		if n := t.nodeSet[id]; n.IsLeaf() {
			a -= len(n.Op.Reads) + 1
			for k := 0; k <= len(n.Op.Reads); k++ {
				row[atix[a+k]] = true
			}
			nr[id] = int32(len(n.Op.Reads) + 1)
		} else {
			for _, c := range st.children[id] {
				for x, in := range has[c*nt : (c+1)*nt] {
					row[x] = row[x] || in
				}
				nr[id] += nr[c]
			}
		}
		for _, in := range row {
			if in {
				ng[id]++
			}
		}
		totalGroups += int(ng[id])
		totalRefs += int(nr[id])
	}

	gslab := make([]tensorGroup, totalGroups)
	rslab := make([]accessRef, totalRefs)
	mslab := make([]bool, (2*totalGroups+nrefs)*nd)
	rows, terms := make([][]iterm, nidx), make([]iterm, nterms)
	st.groups = make([][]tensorGroup, nn)
	a = nrefs
	for id := nn - 1; id >= 0; id-- {
		n := t.nodeSet[id]
		groups := gslab[:0:ng[id]]
		gslab = gslab[ng[id]:]
		group := func(x int, reads, writes int) {
			gi := slot[x]
			if gi < 0 {
				gi = int32(len(groups))
				slot[x] = gi
				groups = append(groups, tensorGroup{tensor: st.tensors[x], tix: x, tensorID: -1})
				cnt[2*gi], cnt[2*gi+1] = 0, 0
			}
			cnt[2*gi] += int32(reads)
			cnt[2*gi+1] += int32(writes)
		}
		// Pass 1: the groups in first-use order and their sizes.
		if n.IsLeaf() {
			a -= len(n.Op.Reads) + 1
			for k := 0; k <= len(n.Op.Reads); k++ {
				if _, read := accessAt(n.Op, k); read {
					group(int(atix[a+k]), 1, 0)
				} else {
					group(int(atix[a+k]), 0, 1)
				}
			}
		} else {
			for _, c := range st.children[id] {
				for _, cg := range st.groups[c] {
					group(cg.tix, len(cg.reads), len(cg.writes))
				}
			}
		}
		for gi := range groups {
			g := &groups[gi]
			r, w := int(cnt[2*gi]), int(cnt[2*gi+1])
			g.reads, g.writes = rslab[:0:r], rslab[r:r:r+w]
			rslab = rslab[r+w:]
			g.readMask, g.writeMask = mslab[:nd:nd], mslab[nd:2*nd:2*nd]
			mslab = mslab[2*nd:]
		}
		// Pass 2: fill them.
		if n.IsLeaf() {
			op := n.Op
			for k := 0; k <= len(op.Reads); k++ {
				acc, read := accessAt(op, k)
				ref := accessRef{leafID: id, acc: acc, mask: mslab[:nd:nd], maxWords: accessMaxWords(op, acc)}
				mslab = mslab[nd:]
				ref.iix, rows, terms = internAccessInto(st, acc, rows, terms)
				for _, ts := range ref.iix {
					for _, term := range ts {
						if term.dim >= 0 {
							ref.mask[term.dim] = true
						}
					}
				}
				g := &groups[slot[atix[a+k]]]
				if read {
					g.reads = append(g.reads, ref)
					orMask(g.readMask, ref.mask)
				} else {
					// The reduction dims are the operator's dims the
					// write does not index, so the write's dims plus the
					// reduction dims are the write's dims plus all the
					// operator's dims: the leaf's subtree mask.
					g.writes = append(g.writes, ref)
					orMask(g.writeMask, ref.mask)
					orMask(g.writeMask, st.subtreeDims(id))
				}
			}
		} else {
			for _, c := range st.children[id] {
				for ci := range st.groups[c] {
					cg := &st.groups[c][ci]
					g := &groups[slot[cg.tix]]
					g.reads = append(g.reads, cg.reads...)
					g.writes = append(g.writes, cg.writes...)
					orMask(g.readMask, cg.readMask)
					orMask(g.writeMask, cg.writeMask)
				}
			}
		}
		seq := !n.IsLeaf() && n.Binding == Seq && len(n.Children) >= 2
		for gi := range groups {
			g := &groups[gi]
			slot[g.tix] = -1
			if !seq {
				continue
			}
			for _, c := range st.children[id] {
				if !has[c*nt+g.tix] {
					g.evicts = true
					break
				}
			}
		}
		st.groups[id] = groups
	}
}

// orMask sets every dim of src in dst.
func orMask(dst, src []bool) {
	for d, in := range src {
		if in {
			dst[d] = true
		}
	}
}

// invocationsMask counts how many times node n executes in total: the
// product over strict ancestors of the extents of their loops whose
// dimension is relevant to the subtree hanging toward n. Ancestor loops
// over dimensions no operator under the path-child iterates do not
// re-execute the subtree (the result is reused in place). When only is
// non-nil, only ancestor loops over its dims count: the evaluator uses
// that to count how many distinct output versions a node drains
// (write-relevant dims only) versus how many times it drains (all relevant
// dims).
func (t *tree) invocationsMask(n int, only []bool) float64 {
	inv := 1.0
	child := n
	for a := t.st.parent[n]; a >= 0; a = t.st.parent[a] {
		rel := t.st.subtreeDims(child)
		ld := t.ldim[a]
		loops := t.nodeSet[a].Loops
		for li, d := range ld {
			if d < 0 || !rel[d] {
				continue
			}
			if only != nil && !only[d] {
				continue
			}
			inv *= float64(loops[li].Extent)
		}
		child = a
	}
	return inv
}
