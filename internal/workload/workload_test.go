package workload

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMatmulGraph(t *testing.T) {
	g := Matmul(8, 16, 32)
	op := g.Ops[0]
	if got := op.OpCount(); got != 8*16*32 {
		t.Errorf("OpCount = %d", got)
	}
	if red := op.ReductionDims(); len(red) != 1 || red[0] != "k" {
		t.Errorf("reduction dims = %v", red)
	}
	if !op.IsReduction("k") || op.IsReduction("m") {
		t.Error("IsReduction misclassifies")
	}
	if g.Tensors["A"].Volume() != 8*32 || g.Tensors["B"].Volume() != 32*16 || g.Tensors["C"].Volume() != 8*16 {
		t.Errorf("tensor volumes wrong: %v", g.Tensors)
	}
	if g.Tensors["C"].Bytes() != 8*16*2 {
		t.Errorf("bytes = %d", g.Tensors["C"].Bytes())
	}
	if !g.IsInput("A") || !g.IsOutput("C") || g.IsIntermediate("A") {
		t.Error("tensor classification wrong")
	}
}

func TestAttentionGraphStructure(t *testing.T) {
	shape, ok := AttentionShapeByName("Bert-B")
	if !ok {
		t.Fatal("Bert-B missing")
	}
	if shape.HeadDim() != 64 {
		t.Errorf("head dim = %d", shape.HeadDim())
	}
	g := Attention(shape)
	if len(g.Ops) != 7 {
		t.Fatalf("want 7 ops (QK + 5 softmax + LV), got %d", len(g.Ops))
	}
	// Softmax expansion per Sec 7.2: max, sub, exp, sum, div.
	for _, name := range []string{"QK", "RowMax", "Sub", "Exp", "RowSum", "Div", "LV"} {
		if g.Op(name) == nil {
			t.Errorf("missing op %s", name)
		}
	}
	// Intermediates: everything between the graph inputs and A.
	inter := g.IntermediateTensors()
	want := map[string]bool{"S": true, "Mx": true, "Sh": true, "E": true, "Sm": true, "L": true}
	for _, tensor := range inter {
		if !want[tensor] {
			t.Errorf("unexpected intermediate %q", tensor)
		}
		delete(want, tensor)
	}
	for k := range want {
		t.Errorf("missing intermediate %q", k)
	}
	// Producers and readers wire up.
	if g.Producer("S") != g.Op("QK") {
		t.Error("S producer wrong")
	}
	if rs := g.Readers("S"); len(rs) != 2 {
		t.Errorf("S readers = %d, want 2 (RowMax, Sub)", len(rs))
	}
	// MAC vs vector split.
	if g.MACOps() != 2*int64(shape.Heads)*int64(shape.SeqLen)*int64(shape.SeqLen)*int64(shape.HeadDim()) {
		t.Errorf("MAC ops = %d", g.MACOps())
	}
}

func TestConvChainGraph(t *testing.T) {
	shape, ok := ConvChainShapeByName("CC4")
	if !ok {
		t.Fatal("CC4 missing")
	}
	g := ConvChain(shape)
	if len(g.Ops) != 2 {
		t.Fatalf("ops = %d", len(g.Ops))
	}
	// Halo: Im extends by filter−1 in h and w.
	im := g.Tensors["Im"]
	if im.Dims[0] != shape.Height+2 || im.Dims[1] != shape.Width+2 {
		t.Errorf("Im dims = %v, want halo-extended %dx%d", im.Dims, shape.Height+2, shape.Width+2)
	}
	if !g.IsIntermediate("Act") {
		t.Error("Act must be the intermediate")
	}
	// Conv2 reads Act through a window: the access must reference u and v.
	conv2 := g.Op("Conv2")
	var actAcc Access
	for _, r := range conv2.Reads {
		if r.Tensor == "Act" {
			actAcc = r
		}
	}
	dims := strings.Join(actAcc.Dims(), ",")
	if !strings.Contains(dims, "u") || !strings.Contains(dims, "v") {
		t.Errorf("Act access dims = %s, want window over u,v", dims)
	}
}

func TestGraphValidation(t *testing.T) {
	bad := &Operator{
		Name: "bad", Kind: KindMAC,
		Dims:  []Dim{{Name: "i", Size: 4}},
		Reads: []Access{{Tensor: "X", Index: []Index{I("zz")}}},
		Write: Access{Tensor: "Y", Index: []Index{I("i")}},
	}
	if _, err := NewGraph("g", 2, bad); err == nil {
		t.Error("want unknown-dim error")
	}
	// Double writer.
	a := &Operator{Name: "a", Kind: KindMAC, Dims: []Dim{{Name: "i", Size: 4}},
		Reads: []Access{{Tensor: "X", Index: []Index{I("i")}}},
		Write: Access{Tensor: "Y", Index: []Index{I("i")}}}
	b := &Operator{Name: "b", Kind: KindMAC, Dims: []Dim{{Name: "i", Size: 4}},
		Reads: []Access{{Tensor: "X", Index: []Index{I("i")}}},
		Write: Access{Tensor: "Y", Index: []Index{I("i")}}}
	if _, err := NewGraph("g", 2, a, b); err == nil {
		t.Error("want double-writer error")
	}
	// Read before produced.
	c := &Operator{Name: "c", Kind: KindMAC, Dims: []Dim{{Name: "i", Size: 4}},
		Reads: []Access{{Tensor: "Mid", Index: []Index{I("i")}}},
		Write: Access{Tensor: "Out", Index: []Index{I("i")}}}
	d := &Operator{Name: "d", Kind: KindMAC, Dims: []Dim{{Name: "i", Size: 4}},
		Reads: []Access{{Tensor: "X", Index: []Index{I("i")}}},
		Write: Access{Tensor: "Mid", Index: []Index{I("i")}}}
	if _, err := NewGraph("g", 2, c, d); err == nil {
		t.Error("want topological-order error")
	}
}

func TestIndexStringAndIdx(t *testing.T) {
	ix := Idx("h", 1, "r", 2)
	if ix.String() != "h+2*r" {
		t.Errorf("String = %q", ix.String())
	}
	if got := I("m").String(); got != "m" {
		t.Errorf("I(m) = %q", got)
	}
	acc := Access{Tensor: "T", Index: []Index{I("a"), Idx("b", 1, "c", 1)}}
	if acc.String() != "T[a, b+c]" {
		t.Errorf("access = %q", acc.String())
	}
	dims := acc.Dims()
	if len(dims) != 3 {
		t.Errorf("dims = %v", dims)
	}
}

func TestShapeTablesComplete(t *testing.T) {
	if len(AttentionShapes) != 11 {
		t.Errorf("Table 2 rows = %d, want 11", len(AttentionShapes))
	}
	if len(ConvChainShapes) != 5 {
		t.Errorf("Table 3 rows = %d, want 5", len(ConvChainShapes))
	}
	for _, s := range AttentionShapes {
		if s.Hidden%s.Heads != 0 {
			t.Errorf("%s: hidden %d not divisible by heads %d", s.Name, s.Hidden, s.Heads)
		}
		g := Attention(s)
		if g.TotalOps() <= 0 {
			t.Errorf("%s: bad op count", s.Name)
		}
	}
	for _, s := range ConvChainShapes {
		g := ConvChain(s)
		want := int64(s.Height)*int64(s.Width)*int64(s.OutC1)*9*int64(s.InC) +
			int64(s.Height)*int64(s.Width)*int64(s.OutC2)*9*int64(s.OutC1)
		if g.MACOps() != want {
			t.Errorf("%s: MACs = %d, want %d", s.Name, g.MACOps(), want)
		}
	}
}

// TestPropertyTensorShapeFromAccess: inferred tensor extents always cover
// the maximal index reach.
func TestPropertyTensorShapeFromAccess(t *testing.T) {
	prop := func(h, r uint8) bool {
		hs, rs := int(h)%64+2, int(r)%5+1
		op := &Operator{
			Name: "win", Kind: KindMAC,
			Dims:  []Dim{{Name: "h", Size: hs}, {Name: "r", Size: rs}},
			Reads: []Access{{Tensor: "In", Index: []Index{Idx("h", 1, "r", 1)}}},
			Write: Access{Tensor: "Out", Index: []Index{I("h")}},
		}
		g, err := NewGraph("g", 2, op)
		if err != nil {
			return false
		}
		return g.Tensors["In"].Dims[0] == hs+rs-1 && g.Tensors["Out"].Dims[0] == hs
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyOpCountMultiplicative: op count is the product of dim sizes.
func TestPropertyOpCountMultiplicative(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		m, n, k := int(a)%16+1, int(b)%16+1, int(c)%16+1
		g := Matmul(m, n, k)
		return g.Ops[0].OpCount() == int64(m)*int64(n)*int64(k)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBatchedConv1DMatchesFigure5(t *testing.T) {
	g := BatchedConv1D()
	op := g.Ops[0]
	if op.DimSize("i") != 12 || op.DimSize("j") != 12 || op.DimSize("k") != 3 {
		t.Errorf("dims = %v", op.Dims)
	}
	// A is 12 × 14 (the j+k window).
	if a := g.Tensors["A"]; a.Dims[0] != 12 || a.Dims[1] != 14 {
		t.Errorf("A dims = %v", a.Dims)
	}
}

func TestConvChainN(t *testing.T) {
	g := ConvChainN("deep", 16, 16, 3, []int{8, 16, 32, 8})
	if len(g.Ops) != 3 {
		t.Fatalf("ops = %d", len(g.Ops))
	}
	inter := g.IntermediateTensors()
	if len(inter) != 2 {
		t.Fatalf("intermediates = %v", inter)
	}
	// Chained channel dims: Conv2 reduces over c1, Conv1's output width.
	conv2 := g.Op("Conv2")
	if !conv2.IsReduction("c1") || conv2.IsReduction("c2") {
		t.Error("channel chaining wrong")
	}
	if g.Producer("Act1") != g.Op("Conv1") {
		t.Error("Act1 producer wrong")
	}
	if !g.IsOutput("Out") {
		t.Error("Out not terminal")
	}
	// Each weight tensor has filter² × in × out elements.
	if got := g.Tensors["W2"].Volume(); got != 9*16*32 {
		t.Errorf("W2 volume = %d", got)
	}
}

func TestAttentionCoarse(t *testing.T) {
	shape, _ := AttentionShapeByName("Bert-S")
	g := AttentionCoarse(shape)
	if len(g.Ops) != 3 {
		t.Fatalf("coarse ops = %d, want 3 (QK, Softmax, LV)", len(g.Ops))
	}
	fine := Attention(shape)
	// The coarse and fine views agree on MAC work and on the fusion
	// targets S and L.
	if g.MACOps() != fine.MACOps() {
		t.Errorf("MACs differ: %d vs %d", g.MACOps(), fine.MACOps())
	}
	for _, tensor := range []string{"S", "L"} {
		if !g.IsIntermediate(tensor) || !fine.IsIntermediate(tensor) {
			t.Errorf("%s must be intermediate in both views", tensor)
		}
		if g.Tensors[tensor].Volume() != fine.Tensors[tensor].Volume() {
			t.Errorf("%s volume differs", tensor)
		}
	}
}

// BenchmarkCanonicalGraph renders the 7-op attention graph of the T5 shape,
// the text every serve and mapper cache key over that workload hashes.
func BenchmarkCanonicalGraph(b *testing.B) {
	s, _ := AttentionShapeByName("T5")
	g := Attention(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonicalSink = CanonicalGraph(g)
	}
}

// canonicalSink keeps the benchmarked rendering live.
var canonicalSink string
