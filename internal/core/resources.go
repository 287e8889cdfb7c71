package core

import "repro/internal/workload"

// NumPE implements the Sec 5.2 PE-usage recursion: a node's own spatial
// extents multiply its children's usage, and siblings combine by max under
// Seq/Shar (they time-share the array) and by sum under Para/Pipe (they
// occupy disjoint partitions). Vector-unit leaves (softmax's small
// operators) do not consume MAC-array PEs.
func NumPE(n *Node) int {
	if n.IsLeaf() {
		if n.Op.Kind.Vector() {
			return 0
		}
		return n.SpatialProduct()
	}
	var inner int
	for _, c := range n.Children {
		u := NumPE(c)
		if n.Binding.Spatial() {
			inner += u
		} else if u > inner {
			inner = u
		}
	}
	return n.SpatialProduct() * inner
}

// unitUsage computes, for every memory level L, how many level-L instances
// one execution of the subtree occupies. A spatial loop at node n
// partitions instances of the node's child level, so it multiplies the
// usage of that level and of every level below it. Sibling usage combines
// like NumPE: max for Seq/Shar, sum for Para/Pipe. It is a pure function
// of the subtree, shared by the static pass; the evaluator runs the same
// recursion allocation-free over scratch rows (unitUsageInto), pinned
// equal by TestUnitUsageArenaMatchesRecursive.
func unitUsage(n *Node, numLevels int) []int {
	u := make([]int, numLevels)
	if n.IsLeaf() {
		for l := range u {
			u[l] = 1
		}
		// Vector leaves run on the vector unit, not the PE array.
		if n.Op.Kind.Vector() {
			u[0] = 0
		} else {
			u[0] = n.SpatialProduct()
		}
		return u
	}
	childLevel := 0
	for _, c := range n.Children {
		if c.Level > childLevel {
			childLevel = c.Level
		}
	}
	inner := make([]int, numLevels)
	for _, c := range n.Children {
		cu := unitUsage(c, numLevels)
		for l := range inner {
			// Para/Pipe children occupy disjoint units at their own
			// level and below; they still share everything above
			// (e.g. pipelined leaves partition the PE array but live
			// under one L1 buffer).
			if n.Binding.Spatial() && l <= childLevel {
				inner[l] += cu[l]
			} else if cu[l] > inner[l] {
				inner[l] = cu[l]
			}
		}
	}
	// A node's own spatial loops split the tile across instances of the
	// node's own level (a DRAM-level node splits the level below, since
	// off-chip memory is a single instance), occupying that level and
	// everything under it.
	split := n.Level
	if split > numLevels-2 {
		split = numLevels - 2
	}
	s := n.SpatialProduct()
	for l := range u {
		u[l] = inner[l]
		if u[l] == 0 {
			u[l] = 1
		}
		if l <= split {
			u[l] *= s
		}
	}
	return u
}

// unitUsageInto is the arena form of unitUsage: one row of numLevels ints
// per node in buf (len ≥ numNodes·numLevels), computed bottom-up over the
// pre-order ids (descending order visits children first). It returns the
// root's row. The per-level math is identical to the recursion; only the
// temporary storage differs.
func (t *tree) unitUsageInto(buf []int, numLevels int) []int {
	for id := len(t.nodeSet) - 1; id >= 0; id-- {
		nd := t.nodeSet[id]
		u := buf[id*numLevels : id*numLevels+numLevels]
		if nd.IsLeaf() {
			for l := range u {
				u[l] = 1
			}
			if nd.Op.Kind.Vector() {
				u[0] = 0
			} else {
				u[0] = nd.SpatialProduct()
			}
			continue
		}
		childLevel := 0
		for _, cid := range t.st.children[id] {
			if cl := t.nodeSet[cid].Level; cl > childLevel {
				childLevel = cl
			}
		}
		for l := range u {
			u[l] = 0
		}
		for _, cid := range t.st.children[id] {
			cu := buf[cid*numLevels : cid*numLevels+numLevels]
			for l := range u {
				if nd.Binding.Spatial() && l <= childLevel {
					u[l] += cu[l]
				} else if cu[l] > u[l] {
					u[l] = cu[l]
				}
			}
		}
		split := nd.Level
		if split > numLevels-2 {
			split = numLevels - 2
		}
		s := nd.SpatialProduct()
		for l := range u {
			if u[l] == 0 {
				u[l] = 1
			}
			if l <= split {
				u[l] *= s
			}
		}
	}
	return buf[0:numLevels:numLevels]
}

// Confinement relation of one (node, tensor-group) pair, precomputed once
// per structure + confinement set: where the tensor's LCA home sits
// relative to the node. The data-movement pass skips confined-at-or-below
// groups (their traffic never crosses the node's upper boundary); the
// footprint pass skips strictly-below groups and stages confined-here
// groups as full slices (the tensor's home).
type confRel = uint8

const (
	confNone  confRel = iota // not confined within this node's subtree
	confBelow                // confined strictly below this node
	confHere                 // this node is the tensor's home LCA
)

// confRelTable precomputes the confinement relation for every (node, group)
// pair from a tensor→LCA-id map. It is a pure function of the structure and
// the confinement set, shared by Compile and the static analyzer.
func confRelTable(t *tree, confine map[string]int) [][]confRel {
	out := make([][]confRel, len(t.nodeSet))
	for id := range t.nodeSet {
		groups := t.st.groups[id]
		if len(groups) == 0 {
			continue
		}
		row := make([]confRel, len(groups))
		for gi := range groups {
			lca, ok := confine[groups[gi].tensor]
			switch {
			case !ok:
			case lca == id:
				row[gi] = confHere
			case t.subtreeContains(id, lca):
				row[gi] = confBelow
			}
		}
		out[id] = row
	}
	return out
}

// footprintInto computes the per-instance buffer occupancy, in words, that
// each subtree requires at every memory level: one row of numLevels int64s
// per node in rows (len ≥ numNodes·numLevels), bottom-up over the pre-order
// ids. It returns the root's row. A node stages one slice per tensor its
// subtree accesses, except tensors confined strictly below it (they never
// reach this level) — so Shar's "more data staged" (the Sec 5.2 sum) shows
// up in the parent node's own slice set, which covers every child's tensors
// at once. Children combine element-wise by max: Seq children own the
// buffers in turns, and Para/Pipe children occupy *different* instances at
// their level, so per-instance occupancy does not add.
//
// A non-nil need recomputes only the rows it marks — the delta path's
// footprint phase. A node's row is a pure function of its subtree's loops
// (slice volumes read the path below the node; children rows fold in the
// rest), so rows whose subtrees did not change since they were last
// written are reused as-is. A nil need recomputes every row.
func (t *tree) footprintInto(rows []int64, numLevels int, rel [][]confRel, density map[string]float64, need []bool) []int64 {
	for id := len(t.nodeSet) - 1; id >= 0; id-- {
		if need != nil && !need[id] {
			continue
		}
		nd := t.nodeSet[id]
		f := rows[id*numLevels : id*numLevels+numLevels]
		// Children combine element-wise by max into this node's row.
		for l := range f {
			f[l] = 0
		}
		for _, cid := range t.st.children[id] {
			cf := rows[cid*numLevels : cid*numLevels+numLevels]
			for l := range f {
				if cf[l] > f[l] {
					f[l] = cf[l]
				}
			}
		}
		var own int64
		for gi := range t.st.groups[id] {
			grp := &t.st.groups[id][gi]
			if rel[id][gi] == confBelow {
				// Confined strictly below: staged in a deeper buffer only.
				continue
			}
			var best int64
			home := rel[id][gi] == confHere || nd.IsLeaf()
			stage := func(refs []accessRef) {
				for _, r := range refs {
					var v int64
					if home {
						// The tensor's home: the whole per-step slice is
						// staged here — this is what "staging rows in the
						// on-chip buffer" means.
						v = t.sliceVolumePerInstanceI(id, r.leafID, r.iix)
					} else {
						// A tensor streaming through: only the next child's
						// working chunk is co-resident, double buffered.
						child := t.childToward(id, r.leafID)
						v = 2 * t.sliceVolumePerInstanceI(child, r.leafID, r.iix)
					}
					if v > best {
						best = v
					}
				}
			}
			stage(grp.reads)
			stage(grp.writes)
			if d, ok := density[grp.tensor]; ok && d < 1 {
				// Compressed sparse staging occupies less buffer space.
				best = int64(float64(best) * d)
			}
			own += best
		}
		f[nd.Level] += own
	}
	return rows[0:numLevels:numLevels]
}

// confinements computes, for every intermediate tensor of the graph, the
// pre-order id of the deepest node whose subtree contains every operator
// touching it: the tensor's home. Traffic for a confined tensor never
// crosses its home node's upper boundary (Sec 5.1.2 — this is the fusion
// payoff: the intermediate is staged on chip instead of spilling to DRAM).
// Graph inputs and outputs are never confined; they must reach DRAM.
func (t *tree) confinements(g *workload.Graph) map[string]int {
	out := map[string]int{}
	for _, tensor := range g.IntermediateTensors() {
		var users []int
		if p := g.Producer(tensor); p != nil {
			if id, ok := t.st.leafOf(p); ok {
				users = append(users, id)
			}
		}
		for _, r := range g.Readers(tensor) {
			if id, ok := t.st.leafOf(r); ok {
				users = append(users, id)
			}
		}
		if len(users) == 0 {
			continue
		}
		out[tensor] = t.lcaIDs(users)
	}
	return out
}
