package core

import (
	"fmt"
	"sort"
	"strings"
)

// DumpStructure renders the tiling-independent tables a Compile produced:
// per node in pre-order, its subtree dims and its tensor groups in order
// with every access reference (leaf, access, dims, maxWords), the
// invocation masks as sorted dim names and the Seq-eviction verdict; plus
// the confinement relation, the parent load levels and the
// attributed-tensor list. The structure golden pins this text so a rewrite
// of the structure builder cannot change a table unnoticed.
func DumpStructure(p *Program) string {
	t, st := p.t, p.t.st
	names := st.dimNames
	dims := func(mask []bool) string {
		var out []string
		for d, in := range mask {
			if in {
				out = append(out, names[d])
			}
		}
		sort.Strings(out)
		return "[" + strings.Join(out, " ") + "]"
	}
	refs := func(b *strings.Builder, kind string, rs []accessRef) {
		for _, r := range rs {
			fmt.Fprintf(b, "    %s leaf=%d %s dims=%s max=%d\n", kind, r.leafID, r.acc, dims(r.mask), r.maxWords)
		}
	}
	confName := [...]string{confNone: "none", confBelow: "below", confHere: "here"}
	var b strings.Builder
	fmt.Fprintf(&b, "attributed: %s\n", strings.Join(p.attributed, " "))
	for id, n := range t.nodeSet {
		fmt.Fprintf(&b, "node %d %s L%d parent=%d pLevel=%d dims=%s\n",
			id, n.Name, n.Level, st.parent[id], p.pLevel[id], dims(st.subtreeDims(id)))
		for gi := range st.groups[id] {
			g := &st.groups[id][gi]
			fmt.Fprintf(&b, "  group %s tensorID=%d conf=%s evicts=%t read=%s write=%s\n",
				g.tensor, g.tensorID, confName[p.confRel[id][gi]], g.evicts,
				dims(g.readMask), dims(g.writeMask))
			refs(&b, "r", g.reads)
			refs(&b, "w", g.writes)
		}
	}
	return b.String()
}
