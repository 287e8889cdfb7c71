package yamlfe

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Render emits a design point as a Timeloop-style YAML config that Load
// reconstructs exactly: same spec, same graph, same tree. It is the
// inverse the conformance YAML route and the fuzz fixpoint rely on, and
// requires every name (levels, tensors, ops, dims, node labels) to be a
// plain identifier.
func Render(spec *arch.Spec, g *workload.Graph, root *core.Node) string {
	var b strings.Builder
	renderArch(&b, spec)
	renderProblem(&b, g)
	renderMapping(&b, root)
	return b.String()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// renderArch writes the architecture as a linear chain of containers,
// one per storage level, whose multiplicities reproduce the fanouts.
func renderArch(b *strings.Builder, spec *arch.Spec) {
	fmt.Fprintf(b, "architecture:\n")
	fmt.Fprintf(b, "  name: %s\n", spec.Name)
	fmt.Fprintf(b, "  attributes:\n")
	fmt.Fprintf(b, "    freq_ghz: %s\n", ftoa(spec.FreqGHz))
	fmt.Fprintf(b, "    word_bytes: %d\n", spec.WordBytes)
	fmt.Fprintf(b, "    macs_per_pe: %d\n", spec.MACsPerPE)
	fmt.Fprintf(b, "    vector_lanes: %d\n", spec.VectorLanesPerSubcore)
	fmt.Fprintf(b, "    mesh: [%d, %d]\n", spec.MeshX, spec.MeshY)
	if len(spec.DirectAccess) > 0 {
		pairs := make([]string, len(spec.DirectAccess))
		for i, p := range spec.DirectAccess {
			pairs[i] = fmt.Sprintf("[%d, %d]", p[0], p[1])
		}
		fmt.Fprintf(b, "    direct_access: [%s]\n", strings.Join(pairs, ", "))
	}
	indent := "  "
	for i := spec.NumLevels() - 1; i >= 0; i-- {
		l := spec.Levels[i]
		// The container holding level i multiplies by the fanout of the
		// level above it, so instance products reproduce spec.Instances.
		name := fmt.Sprintf("u%d", i)
		if i < spec.NumLevels()-1 && spec.Levels[i+1].Fanout > 1 {
			name = fmt.Sprintf("u%d[0..%d]", i, spec.Levels[i+1].Fanout-1)
		}
		fmt.Fprintf(b, "%ssubtree:\n", indent)
		fmt.Fprintf(b, "%s  - name: %s\n", indent, name)
		fmt.Fprintf(b, "%s    local:\n", indent)
		fmt.Fprintf(b, "%s      - name: %s\n", indent, l.Name)
		if i == spec.NumLevels()-1 {
			fmt.Fprintf(b, "%s        class: DRAM\n", indent)
		}
		fmt.Fprintf(b, "%s        attributes:\n", indent)
		// An unbounded level prints no capacity line.
		if l.CapacityBytes != 0 {
			fmt.Fprintf(b, "%s          capacity: %s\n", indent, arch.AppendCapacity(nil, l.CapacityBytes))
		}
		fmt.Fprintf(b, "%s          bandwidth_gbs: %s\n", indent, ftoa(l.BandwidthGBs))
		indent += "    "
	}
}

// renderProblem writes the multi-op problem: io, dimensions, per-op
// instance sizes and data-spaces with PSoP projections.
func renderProblem(b *strings.Builder, g *workload.Graph) {
	fmt.Fprintf(b, "problem:\n")
	fmt.Fprintf(b, "  name: %s\n", g.Name)
	elem := workload.WordBytes
	if len(g.Ops) > 0 {
		if t, ok := g.Tensors[g.Ops[0].Write.Tensor]; ok {
			elem = t.ElemBytes
		}
	}
	fmt.Fprintf(b, "  elem_bytes: %d\n", elem)
	fmt.Fprintf(b, "  io:\n")
	fmt.Fprintf(b, "    ins: [%s]\n", strings.Join(g.InputTensors(), ", "))
	fmt.Fprintf(b, "    outs: [%s]\n", strings.Join(g.OutputTensors(), ", "))
	all := g.AllDims()
	dims := make([]string, len(all))
	for i, d := range all {
		dims[i] = d.Name
	}
	fmt.Fprintf(b, "  dimensions: [%s]\n", strings.Join(dims, ", "))
	var dense []string
	for name, t := range g.Tensors {
		if t.Density != 0 {
			dense = append(dense, name)
		}
	}
	sort.Strings(dense)
	if len(dense) > 0 {
		fmt.Fprintf(b, "  densities:\n")
		for _, name := range dense {
			fmt.Fprintf(b, "    %s: %s\n", name, ftoa(g.Tensors[name].Density))
		}
	}
	fmt.Fprintf(b, "  ops:\n")
	for _, op := range g.Ops {
		fmt.Fprintf(b, "    - name: %s\n", op.Name)
		fmt.Fprintf(b, "      kind: %s\n", op.Kind)
		names := make([]string, len(op.Dims))
		inst := make([]string, len(op.Dims))
		for i, d := range op.Dims {
			names[i] = d.Name
			inst[i] = fmt.Sprintf("%s: %d", d.Name, d.Size)
		}
		fmt.Fprintf(b, "      dimensions: [%s]\n", strings.Join(names, ", "))
		fmt.Fprintf(b, "      instance: {%s}\n", strings.Join(inst, ", "))
		reads := make([]string, len(op.Reads))
		fmt.Fprintf(b, "      data-spaces:\n")
		for i, r := range op.Reads {
			reads[i] = r.Tensor
			fmt.Fprintf(b, "        - {name: %s, projection: %s}\n", r.Tensor, renderProjection(r.Index))
		}
		fmt.Fprintf(b, "        - {name: %s, projection: %s, read-write: true}\n", op.Write.Tensor, renderProjection(op.Write.Index))
		fmt.Fprintf(b, "      ins: [%s]\n", strings.Join(reads, ", "))
		fmt.Fprintf(b, "      out: [%s]\n", op.Write.Tensor)
	}
}

// renderProjection writes one access as a flow PSoP:
// [[[m]], [[k, 2], 1]] addresses T[m][2k+1].
func renderProjection(index []workload.Index) string {
	outer := make([]string, len(index))
	for i, ix := range index {
		terms := make([]string, 0, len(ix.Terms)+1)
		for _, t := range ix.Terms {
			if t.Coef == 1 {
				terms = append(terms, "["+t.Dim+"]")
			} else {
				terms = append(terms, fmt.Sprintf("[%s, %d]", t.Dim, t.Coef))
			}
		}
		if ix.Offset != 0 || len(ix.Terms) == 0 {
			terms = append(terms, strconv.Itoa(ix.Offset))
		}
		outer[i] = "[" + strings.Join(terms, ", ") + "]"
	}
	return "[" + strings.Join(outer, ", ") + "]"
}

// renderMapping writes the tree as nested Tile / Scope / Op nodes.
func renderMapping(b *strings.Builder, root *core.Node) {
	fmt.Fprintf(b, "mapping:\n")
	renderMapNode(b, root, "  ", false)
}

// renderMapNode writes one node. asItem starts the first line with the
// sequence dash.
func renderMapNode(b *strings.Builder, n *core.Node, indent string, asItem bool) {
	head, rest := indent, indent
	if asItem {
		head, rest = indent+"- ", indent+"  "
	}
	if n.IsLeaf() {
		fmt.Fprintf(b, "%snode-type: Op\n", head)
		fmt.Fprintf(b, "%sname: %s\n", rest, n.Op.Name)
		fmt.Fprintf(b, "%slabel: %s\n", rest, n.Name)
		if f := renderFactors(n.Loops); f != "" {
			fmt.Fprintf(b, "%sfactors: %s\n", rest, f)
		}
		return
	}
	fmt.Fprintf(b, "%snode-type: Tile\n", head)
	fmt.Fprintf(b, "%sname: %s\n", rest, n.Name)
	fmt.Fprintf(b, "%starget: %d\n", rest, n.Level)
	if f := renderFactors(n.Loops); f != "" {
		fmt.Fprintf(b, "%sfactors: %s\n", rest, f)
	}
	fmt.Fprintf(b, "%ssubtree:\n", rest)
	kidIndent := rest + "  "
	if n.Binding != core.Seq && len(n.Children) > 1 {
		fmt.Fprintf(b, "%s- node-type: Scope\n", kidIndent)
		fmt.Fprintf(b, "%s  type: %s\n", kidIndent, scopeTypeName(n.Binding))
		fmt.Fprintf(b, "%s  subtree:\n", kidIndent)
		kidIndent += "    "
	}
	for _, c := range n.Children {
		renderMapNode(b, c, kidIndent, true)
	}
}

// scopeTypeName is the inverse of scopeBindings for the canonical names.
func scopeTypeName(bind core.Binding) string {
	switch bind {
	case core.Shar:
		return "Sharing"
	case core.Para:
		return "Spatial"
	case core.Pipe:
		return "Pipeline"
	}
	return "Temporal"
}

// renderFactors writes loops as "m=4 s:n=2" items, spatial loops
// prefixed.
func renderFactors(loops []core.Loop) string {
	items := make([]string, len(loops))
	for i, l := range loops {
		prefix := ""
		if l.Kind == core.Spatial {
			prefix = "s:"
		}
		items[i] = fmt.Sprintf("%s%s=%d", prefix, l.Dim, l.Extent)
	}
	return strings.Join(items, " ")
}
