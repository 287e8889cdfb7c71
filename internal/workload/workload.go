// Package workload models dense DNN workloads as graphs of perfect-loop-nest
// operators with affine tensor accesses.
//
// TileFlow (Sec 2.2, Sec 4) treats every operator as a polyhedron of
// iterations over globally named dimensions. Fusing two operators means the
// operators share some of those dimension names (for example the row
// dimension "m" is shared by Q×K, softmax and L×V in self-attention), which
// is what lets a single tile loop in the analysis tree cover matching
// iterations of several operators at once.
//
// An operator reads and writes tensors through affine index expressions
// ("accesses"). The expression for one tensor dimension is a sum of
// coefficient×iteration-dimension terms plus a constant offset, which is
// general enough for matrix multiplication (S[m,l] from Q[m,k]·K[k,l]),
// convolution windows (Im[h+r, w+s, c]) and strided layouts (A[i1*4+i0]).
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Dim is one iteration dimension of an operator: a graph-global name and the
// full trip count of that dimension for this workload instance.
type Dim struct {
	Name string
	Size int
}

// Term is one coefficient×dimension term of an affine index expression.
type Term struct {
	Dim  string
	Coef int
}

// Index is an affine expression over iteration dimensions used to address
// one dimension of a tensor: Offset + Σ Coef·dim.
type Index struct {
	Terms  []Term
	Offset int
}

// Idx builds an Index from alternating (dim, coef) pairs, a convenience for
// workload constructors. Idx("h", 1, "r", 1) addresses a convolution window.
func Idx(pairs ...any) Index {
	if len(pairs)%2 != 0 {
		panic("workload.Idx: want (dim string, coef int) pairs")
	}
	ix := Index{}
	for i := 0; i < len(pairs); i += 2 {
		d, ok := pairs[i].(string)
		if !ok {
			panic("workload.Idx: dim must be a string")
		}
		c, ok := pairs[i+1].(int)
		if !ok {
			panic("workload.Idx: coef must be an int")
		}
		ix.Terms = append(ix.Terms, Term{Dim: d, Coef: c})
	}
	return ix
}

// I is shorthand for a single unit-coefficient index expression, the common
// case of A[i][j] style addressing.
func I(dim string) Index { return Index{Terms: []Term{{Dim: dim, Coef: 1}}} }

// String renders the index expression in a compact human form such as
// "h+2*r" or "i".
func (ix Index) String() string { return string(ix.appendTo(nil)) }

// appendTo appends the String rendering to dst: unit coefficients print
// as the bare dim, others as "2*h", and a non-zero offset as a "+" term
// even when negative ("h+-1"), which parseIndexExpr reads back.
func (ix Index) appendTo(dst []byte) []byte {
	if len(ix.Terms) == 0 {
		return strconv.AppendInt(dst, int64(ix.Offset), 10)
	}
	for i, t := range ix.Terms {
		if i > 0 {
			dst = append(dst, '+')
		}
		if t.Coef != 1 {
			dst = strconv.AppendInt(dst, int64(t.Coef), 10)
			dst = append(dst, '*')
		}
		dst = append(dst, t.Dim...)
	}
	if ix.Offset != 0 {
		dst = append(dst, '+')
		dst = strconv.AppendInt(dst, int64(ix.Offset), 10)
	}
	return dst
}

// Dims reports the set of iteration dimensions the expression refers to.
func (ix Index) Dims() []string {
	out := make([]string, 0, len(ix.Terms))
	for _, t := range ix.Terms {
		out = append(out, t.Dim)
	}
	return out
}

// Access describes how an operator touches one tensor: one affine index
// expression per tensor dimension.
type Access struct {
	Tensor string
	Index  []Index
}

// String renders an access like "Q[m, k]".
func (a Access) String() string { return string(a.appendTo(nil)) }

// appendTo appends the String rendering to dst.
func (a Access) appendTo(dst []byte) []byte {
	dst = append(dst, a.Tensor...)
	dst = append(dst, '[')
	for i, ix := range a.Index {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = ix.appendTo(dst)
	}
	return append(dst, ']')
}

// Dims reports every iteration dimension the access refers to.
func (a Access) Dims() []string {
	seen := map[string]bool{}
	var out []string
	for _, ix := range a.Index {
		for _, d := range ix.Dims() {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// OpKind classifies the per-iteration computation of an operator, which the
// energy and latency models use to pick compute unit and per-op cost.
type OpKind int

// Operator kinds. MAC ops run on the matrix array; the others run on the
// vector unit.
const (
	KindMAC  OpKind = iota // multiply-accumulate (matmul, convolution)
	KindExp                // exponential
	KindMax                // running maximum (reduction)
	KindSum                // running sum (reduction)
	KindSub                // elementwise subtract
	KindDiv                // elementwise divide
	KindCopy               // elementwise copy / activation passthrough
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case KindMAC:
		return "mac"
	case KindExp:
		return "exp"
	case KindMax:
		return "max"
	case KindSum:
		return "sum"
	case KindSub:
		return "sub"
	case KindDiv:
		return "div"
	case KindCopy:
		return "copy"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Vector reports whether the kind runs on the vector unit rather than the
// matrix (MAC) array.
func (k OpKind) Vector() bool { return k != KindMAC }

// Operator is a perfect loop nest over globally named iteration dimensions.
// Reduction dimensions are those that appear in a read access but not in the
// write access; they are derived, not declared.
type Operator struct {
	Name  string
	Kind  OpKind
	Dims  []Dim // full iteration space; order is canonical loop order
	Reads []Access
	Write Access
}

// DimSize reports the trip count of the named dimension, or 0 when the
// operator does not iterate over it.
func (o *Operator) DimSize(name string) int {
	for _, d := range o.Dims {
		if d.Name == name {
			return d.Size
		}
	}
	return 0
}

// HasDim reports whether the operator iterates over the named dimension.
func (o *Operator) HasDim(name string) bool { return o.DimSize(name) > 0 }

// ReductionDims reports the dimensions that are reduced away: iterated by the
// operator but absent from the write access.
func (o *Operator) ReductionDims() []string {
	written := map[string]bool{}
	for _, d := range o.Write.Dims() {
		written[d] = true
	}
	var out []string
	for _, d := range o.Dims {
		if !written[d.Name] {
			out = append(out, d.Name)
		}
	}
	return out
}

// IsReduction reports whether dim is a reduction dimension of the operator.
// It is equivalent to scanning ReductionDims but allocation-free: dataflow
// builders call it per dim per leaf on the mapper's hot path.
func (o *Operator) IsReduction(dim string) bool {
	if !o.HasDim(dim) {
		return false
	}
	for _, ix := range o.Write.Index {
		for _, t := range ix.Terms {
			if t.Dim == dim {
				return false
			}
		}
	}
	return true
}

// OpCount is the total number of scalar operations the operator performs:
// the product of all dimension trip counts.
func (o *Operator) OpCount() int64 {
	n := int64(1)
	for _, d := range o.Dims {
		n *= int64(d.Size)
	}
	return n
}

// Accesses returns all accesses, reads first then the write.
func (o *Operator) Accesses() []Access {
	out := make([]Access, 0, len(o.Reads)+1)
	out = append(out, o.Reads...)
	out = append(out, o.Write)
	return out
}

// String renders the operator as a one-line statement, e.g.
// "S[m, l] += Q[m, k] * K[k, l]".
func (o *Operator) String() string {
	reads := make([]string, len(o.Reads))
	for i, r := range o.Reads {
		reads[i] = r.String()
	}
	op := "+="
	if len(o.ReductionDims()) == 0 {
		op = "="
	}
	return fmt.Sprintf("%s %s %s(%s)", o.Write.String(), op, o.Kind, strings.Join(reads, ", "))
}

// Tensor is a multidimensional array referenced by operators. Density
// below 1 marks a sparse tensor stored in a compressed format (the Sec 7.7
// extension: "SparseLoop proposes to use sparse acceleration features ...
// this is also applicable to TileFlow"): data movement, staging and — on
// hardware that gates zero operands — compute scale with it.
type Tensor struct {
	Name      string
	Dims      []int
	ElemBytes int
	// Density is the non-zero fraction; 0 means unset (treated as 1.0,
	// fully dense).
	Density float64
}

// EffDensity is the tensor's density with the dense default applied.
func (t *Tensor) EffDensity() float64 {
	if t.Density <= 0 || t.Density > 1 {
		return 1
	}
	return t.Density
}

// Volume is the number of elements in the tensor.
func (t *Tensor) Volume() int64 {
	v := int64(1)
	for _, d := range t.Dims {
		v *= int64(d)
	}
	return v
}

// Bytes is the total byte size of the tensor.
func (t *Tensor) Bytes() int64 { return t.Volume() * int64(t.ElemBytes) }

// Graph is a DAG of operators connected through tensors. Operators appear in
// a valid topological order. A tensor written by one operator and read by
// another is an intermediate; intermediates are the targets of fusion.
type Graph struct {
	Name    string
	Ops     []*Operator
	Tensors map[string]*Tensor

	producer map[string]*Operator   // tensor -> writer
	readers  map[string][]*Operator // tensor -> readers
}

// NewGraph assembles a graph from operators. Tensor shapes are inferred from
// the maximal index reach of each access; elemBytes is the element size used
// for all tensors (the paper uses 16-bit words throughout).
func NewGraph(name string, elemBytes int, ops ...*Operator) (*Graph, error) {
	g := &Graph{
		Name:     name,
		Ops:      ops,
		Tensors:  map[string]*Tensor{},
		producer: map[string]*Operator{},
		readers:  map[string][]*Operator{},
	}
	for _, op := range ops {
		if len(op.Dims) == 0 {
			return nil, fmt.Errorf("workload: operator %q has no iteration dims", op.Name)
		}
		for _, acc := range op.Accesses() {
			for _, d := range acc.Dims() {
				if !op.HasDim(d) {
					return nil, fmt.Errorf("workload: operator %q access %s uses unknown dim %q", op.Name, acc, d)
				}
			}
			shape := make([]int, len(acc.Index))
			for i, ix := range acc.Index {
				extent := ix.Offset + 1
				for _, t := range ix.Terms {
					extent += t.Coef * (op.DimSize(t.Dim) - 1)
				}
				shape[i] = extent
			}
			t, ok := g.Tensors[acc.Tensor]
			if !ok {
				g.Tensors[acc.Tensor] = &Tensor{Name: acc.Tensor, Dims: shape, ElemBytes: elemBytes}
				continue
			}
			if len(t.Dims) != len(shape) {
				return nil, fmt.Errorf("workload: tensor %q rank mismatch (%d vs %d)", acc.Tensor, len(t.Dims), len(shape))
			}
			for i := range shape {
				if shape[i] > t.Dims[i] {
					t.Dims[i] = shape[i]
				}
			}
		}
		if prev, dup := g.producer[op.Write.Tensor]; dup {
			return nil, fmt.Errorf("workload: tensor %q written by both %q and %q", op.Write.Tensor, prev.Name, op.Name)
		}
		g.producer[op.Write.Tensor] = op
		for _, r := range op.Reads {
			g.readers[r.Tensor] = append(g.readers[r.Tensor], op)
		}
	}
	// Verify topological order: every read tensor must be a graph input or
	// already produced.
	produced := map[string]bool{}
	for _, op := range ops {
		for _, r := range op.Reads {
			if g.producer[r.Tensor] != nil && !produced[r.Tensor] {
				return nil, fmt.Errorf("workload: graph %q: operator %q reads %q before it is produced", name, op.Name, r.Tensor)
			}
		}
		produced[op.Write.Tensor] = true
	}
	return g, nil
}

// MustGraph is NewGraph that panics on error, for static workload tables.
func MustGraph(name string, elemBytes int, ops ...*Operator) *Graph {
	g, err := NewGraph(name, elemBytes, ops...)
	if err != nil {
		panic(err)
	}
	return g
}

// Op finds an operator by name, or nil.
func (g *Graph) Op(name string) *Operator {
	for _, op := range g.Ops {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// Producer reports the operator that writes the tensor, or nil for graph
// inputs.
func (g *Graph) Producer(tensor string) *Operator { return g.producer[tensor] }

// Readers reports the operators that read the tensor.
func (g *Graph) Readers(tensor string) []*Operator { return g.readers[tensor] }

// IsIntermediate reports whether the tensor is both produced and consumed
// inside the graph — the class of tensors fusion keeps on chip.
func (g *Graph) IsIntermediate(tensor string) bool {
	return g.producer[tensor] != nil && len(g.readers[tensor]) > 0
}

// IsInput reports whether the tensor is a pure graph input.
func (g *Graph) IsInput(tensor string) bool { return g.producer[tensor] == nil }

// IsOutput reports whether the tensor is produced but never consumed inside
// the graph.
func (g *Graph) IsOutput(tensor string) bool {
	return g.producer[tensor] != nil && len(g.readers[tensor]) == 0
}

// InputTensors lists graph inputs in deterministic order.
func (g *Graph) InputTensors() []string { return g.tensorsWhere(g.IsInput) }

// OutputTensors lists graph outputs in deterministic order.
func (g *Graph) OutputTensors() []string { return g.tensorsWhere(g.IsOutput) }

// IntermediateTensors lists intermediates in deterministic order.
func (g *Graph) IntermediateTensors() []string { return g.tensorsWhere(g.IsIntermediate) }

func (g *Graph) tensorsWhere(pred func(string) bool) []string {
	var out []string
	for name := range g.Tensors {
		if pred(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SetDensity marks a tensor as sparse with the given non-zero fraction.
func (g *Graph) SetDensity(tensor string, density float64) error {
	t, ok := g.Tensors[tensor]
	if !ok {
		return fmt.Errorf("workload: no tensor %q", tensor)
	}
	if density <= 0 || density > 1 {
		return fmt.Errorf("workload: density %v outside (0, 1]", density)
	}
	t.Density = density
	return nil
}

// Density reports a tensor's effective density (1.0 for unknown tensors).
func (g *Graph) Density(tensor string) float64 {
	if t, ok := g.Tensors[tensor]; ok {
		return t.EffDensity()
	}
	return 1
}

// OpDensity is the fraction of an operator's iterations that touch nonzero
// data on gating hardware: the product of its read tensors' densities.
func (g *Graph) OpDensity(op *Operator) float64 {
	d := 1.0
	for _, r := range op.Reads {
		d *= g.Density(r.Tensor)
	}
	return d
}

// DimSize reports the maximal trip count of the named dimension across all
// operators, or 0 when no operator iterates over it.
func (g *Graph) DimSize(name string) int {
	n := 0
	for _, op := range g.Ops {
		if s := op.DimSize(name); s > n {
			n = s
		}
	}
	return n
}

// AllDims lists every iteration dimension used anywhere in the graph, in
// first-use order.
func (g *Graph) AllDims() []Dim {
	seen := map[string]bool{}
	var out []Dim
	for _, op := range g.Ops {
		for _, d := range op.Dims {
			if !seen[d.Name] {
				seen[d.Name] = true
				out = append(out, Dim{Name: d.Name, Size: g.DimSize(d.Name)})
			}
		}
	}
	return out
}

// TotalOps is the total scalar op count of the graph.
func (g *Graph) TotalOps() int64 {
	var n int64
	for _, op := range g.Ops {
		n += op.OpCount()
	}
	return n
}

// MACOps is the scalar op count restricted to MAC operators.
func (g *Graph) MACOps() int64 {
	var n int64
	for _, op := range g.Ops {
		if op.Kind == KindMAC {
			n += op.OpCount()
		}
	}
	return n
}

// String summarizes the graph, one operator per line.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s:\n", g.Name)
	for _, op := range g.Ops {
		fmt.Fprintf(&b, "  %s: %s\n", op.Name, op)
	}
	return b.String()
}
