package workload

import (
	"slices"
	"strconv"
)

// CanonicalGraph dumps everything about a workload graph that affects the
// analysis: operators in graph order with their full iteration spaces and
// affine accesses, and tensors (sorted) with shape, element size and
// density. Cache layers (the serve subsystem's design-point keys, the
// mapper's fitness memoization) hash this text so that equal graphs share
// entries regardless of how a request spelled them.
func CanonicalGraph(g *Graph) string {
	return string(AppendCanonicalGraph(make([]byte, 0, canonicalSizeHint(g)), g))
}

// AppendCanonicalGraph appends CanonicalGraph's text to dst, so a caller
// that hashes it together with other text renders it straight into its
// own buffer.
func AppendCanonicalGraph(dst []byte, g *Graph) []byte {
	dst = append(dst, "name "...)
	dst = append(dst, g.Name...)
	dst = append(dst, '\n')
	dst = appendOps(dst, g, true)
	for _, name := range sortedTensorNames(g) {
		t := g.Tensors[name]
		dst = append(dst, "tensor "...)
		dst = append(dst, t.Name...)
		dst = append(dst, " dims=["...)
		for i, d := range t.Dims {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, "] elem="...)
		dst = strconv.AppendInt(dst, int64(t.ElemBytes), 10)
		dst = append(dst, " density="...)
		dst = strconv.AppendFloat(dst, t.EffDensity(), 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// canonicalSizeHint is a capacity that holds a graph's canonical text
// without regrowing in the common case: the catalog's operators render
// to under 150 bytes each, tensors to under 60.
func canonicalSizeHint(g *Graph) int {
	return 32 + len(g.Name) + 160*len(g.Ops) + 64*len(g.Tensors)
}

// StructureSignature renders only the SHAPE-FREE structure of a graph:
// operators in graph order with kind, iteration-dimension names (sizes
// dropped), and affine accesses, plus each tensor's rank and element
// width. Two graphs with the same signature are the same computation over
// different tensor sizes — e.g. Bert-S and Bert-L attention. The warm-
// start library keys donor checkpoints by this text (hashed together
// with the architecture's structure), so a search can seed its
// population from a structurally identical design point without ever
// conflating the shape-specific caches, which keep using CanonicalGraph.
func StructureSignature(g *Graph) string {
	dst := appendOps(make([]byte, 0, canonicalSizeHint(g)), g, false)
	for _, name := range sortedTensorNames(g) {
		t := g.Tensors[name]
		dst = append(dst, "tensor "...)
		dst = append(dst, t.Name...)
		dst = append(dst, " rank="...)
		dst = strconv.AppendInt(dst, int64(len(t.Dims)), 10)
		dst = append(dst, " elem="...)
		dst = strconv.AppendInt(dst, int64(t.ElemBytes), 10)
		dst = append(dst, '\n')
	}
	return string(dst)
}

// appendOps appends one line per operator, in graph order:
// "op <name> kind=<kind> dims=<d>[:<size>],... reads=<access>;... write=<access>".
func appendOps(dst []byte, g *Graph, sizes bool) []byte {
	for _, op := range g.Ops {
		dst = append(dst, "op "...)
		dst = append(dst, op.Name...)
		dst = append(dst, " kind="...)
		dst = append(dst, op.Kind.String()...)
		dst = append(dst, " dims="...)
		for i, d := range op.Dims {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, d.Name...)
			if sizes {
				dst = append(dst, ':')
				dst = strconv.AppendInt(dst, int64(d.Size), 10)
			}
		}
		dst = append(dst, " reads="...)
		for i, r := range op.Reads {
			if i > 0 {
				dst = append(dst, ';')
			}
			dst = r.appendTo(dst)
		}
		dst = append(dst, " write="...)
		dst = op.Write.appendTo(dst)
		dst = append(dst, '\n')
	}
	return dst
}

// sortedTensorNames lists the graph's tensor names in sorted order.
func sortedTensorNames(g *Graph) []string {
	names := make([]string, 0, len(g.Tensors))
	for name := range g.Tensors {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
