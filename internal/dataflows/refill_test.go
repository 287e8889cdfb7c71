package dataflows

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

// TestTemplateRefillMatchesBuild: one tree per template, refilled through
// the golden's factor maps in a shuffled order with a rejected map before
// each one, reproduces every golden line. Each accepted refill therefore
// rewrites a tree a rejected refill left half written.
func TestTemplateRefillMatchesBuild(t *testing.T) {
	want := readTemplateGolden(t)
	rng := rand.New(rand.NewSource(21))
	line, recovered := 0, 0
	for _, gt := range goldenTemplates() {
		rf, ok := gt.df.(Refiller)
		if !ok {
			t.Fatalf("%s %s does not implement Refiller", gt.spec.Name, gt.df.Name())
		}
		dst, err := gt.df.Build(map[string]int{})
		if err != nil {
			t.Fatalf("%s %s: unit factors: %v", gt.spec.Name, gt.df.Name(), err)
		}
		var rejects []int
		for i := range gt.maps {
			if _, err := gt.df.Build(gt.maps[i]); err != nil {
				rejects = append(rejects, i)
			}
		}
		refill := func(i int) error {
			err := rf.Refill(dst, gt.maps[i])
			if got := goldenLine(gt, gt.maps[i], dst, err); got != want[line+i] {
				t.Fatalf("Refill diverges from %s line %d:\ngot  %s\nwant %s", templateGoldenPath, line+i+1, got, want[line+i])
			}
			return err
		}
		for _, i := range rng.Perm(len(gt.maps)) {
			if len(rejects) > 0 && refill(rejects[rng.Intn(len(rejects))]) == nil {
				t.Fatal("a rejected map refilled")
			}
			if refill(i) == nil && len(rejects) > 0 {
				recovered++
			}
		}
		line += len(gt.maps)
	}
	if recovered == 0 {
		t.Fatal("no accepted refill followed a rejected one")
	}
}

// allocTemplates is every Table 5 template on Bert-S and CC1, Edge and
// Cloud.
func allocTemplates() []Dataflow {
	bert, _ := workload.AttentionShapeByName("Bert-S")
	cc1, _ := workload.ConvChainShapeByName("CC1")
	var out []Dataflow
	for _, spec := range []*arch.Spec{arch.Edge(), arch.Cloud()} {
		out = append(out, attentionDataflows(bert, spec)...)
		out = append(out, convDataflows(cc1, spec)...)
	}
	return out
}

// TestTemplateRefillAllocs: a feasible refill allocates nothing, for every
// template and every accepted golden map.
func TestTemplateRefillAllocs(t *testing.T) {
	for _, gt := range goldenTemplates() {
		dst, err := gt.df.Build(map[string]int{})
		if err != nil {
			t.Fatal(err)
		}
		rf := gt.df.(Refiller)
		for _, f := range gt.maps {
			if rf.Refill(dst, f) != nil {
				continue
			}
			if allocs := testing.AllocsPerRun(5, func() { _ = rf.Refill(dst, f) }); allocs != 0 {
				t.Errorf("%s %s %s | %s: a feasible refill allocates %v objects, want 0",
					gt.spec.Name, gt.df.Name(), gt.df.Graph().Name, formatFactors(f), allocs)
			}
		}
	}
}

// minAllocs is the fewest allocations any of 50 single calls of fn
// makes. Under the race detector sync.Pool drops pooled objects (fmt's
// printers among them) at random, so one call can allocate more than the
// next; the minimum is stable, and a path that gains an allocation still
// raises it.
func minAllocs(fn func()) float64 {
	least := math.Inf(1)
	for range 50 {
		least = min(least, testing.AllocsPerRun(1, fn))
	}
	return least
}

// errSink keeps TestTemplateRejectAllocs's reference errors live.
var errSink error

// TestTemplateRejectAllocs: a rejected refill allocates no more than
// formatting its error, for each kind of rejection: a factor that does not
// divide its dim (on every template with factors), outer factors whose product
// over-divides a dim, and a layerwise split that over-divides what the
// chunking left.
func TestTemplateRejectAllocs(t *testing.T) {
	type reject struct {
		df        Dataflow
		f         map[string]int
		reference func() error
	}
	var cases []reject
	for _, df := range allocTemplates() {
		if len(df.Factors()) == 0 {
			continue // FLAT-MGran on Edge tiles nothing
		}
		fs := df.Factors()[0]
		v := 2
		for fs.Total%v == 0 {
			v++
		}
		cases = append(cases, reject{df, map[string]int{fs.Key: v}, func() error {
			return fmt.Errorf("factor %s=%d does not divide %d", fs.Key, v, fs.Total)
		}})
	}
	// The references format the same runtime strings the builds do:
	// boxing a constant string would cost nothing.
	bert, _ := workload.AttentionShapeByName("Bert-S")
	rgran, lw := FLATRGran(bert, arch.Edge()), LayerwiseAttention(bert, arch.Cloud())
	qk := lw.Graph().Op("QK")
	h, m := qk.Dims[dimIndex(qk, "h")].Name, qk.Dims[dimIndex(qk, "m")].Name
	cases = append(cases,
		reject{rgran, map[string]int{"sp_c": 8, "t_h": 2}, func() error {
			return fmt.Errorf("dataflow %s: outer factors %d do not divide %s=%d", rgran.Name(), 16, h, 8)
		}},
		reject{lw, map[string]int{"t": 512, "sp_s": 2}, func() error {
			return fmt.Errorf("layerwise %s: sp_s=%d does not divide %s", qk.Name, 2, m)
		}},
	)
	for _, c := range cases {
		name := c.df.Name() + " " + c.df.Graph().Name + " | " + formatFactors(c.f)
		dst, err := c.df.Build(map[string]int{})
		if err != nil {
			t.Fatal(err)
		}
		rf := c.df.(Refiller)
		if err := rf.Refill(dst, c.f); err == nil || err.Error() != c.reference().Error() {
			t.Fatalf("%s: Refill error %v, want %v", name, err, c.reference())
		}
		want := minAllocs(func() { errSink = c.reference() })
		if allocs := minAllocs(func() { errSink = rf.Refill(dst, c.f) }); allocs > want {
			t.Errorf("%s: a rejected refill allocates %v objects, its error alone %v", name, allocs, want)
		}
	}
}

// benchTemplates are the templates the build benchmarks time: the largest
// attention trees (Layerwise, and Chimera with its unfused L×V subtree),
// the TileFlow attention and conv dataflows, on Cloud.
func benchTemplates() []Dataflow {
	bert, _ := workload.AttentionShapeByName("Bert-S")
	cc1, _ := workload.ConvChainShapeByName("CC1")
	cloud := arch.Cloud()
	return []Dataflow{
		LayerwiseAttention(bert, cloud),
		Chimera(bert, cloud),
		TileFlowAttention(bert, cloud),
		TileFlowConv(cc1, cloud),
	}
}

// BenchmarkTemplateBuild measures a fresh tree per candidate under the
// template's default factors.
func BenchmarkTemplateBuild(b *testing.B) {
	for _, df := range benchTemplates() {
		b.Run(df.Name()+"/"+df.Graph().Name, func(b *testing.B) {
			f := df.DefaultFactors()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := df.Build(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTemplateRefill measures rewriting one tree in place under the
// template's default factors.
func BenchmarkTemplateRefill(b *testing.B) {
	for _, df := range benchTemplates() {
		b.Run(df.Name()+"/"+df.Graph().Name, func(b *testing.B) {
			f := df.DefaultFactors()
			dst, err := df.Build(f)
			if err != nil {
				b.Fatal(err)
			}
			rf := df.(Refiller)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rf.Refill(dst, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
