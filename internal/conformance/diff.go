package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// Divergence reports a disagreement between two evaluation routes (or
// between the model and the oracle) for one generated point.
type Divergence struct {
	Seed  int64
	Route string
	Err   error
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("seed %d, route %s: %v", d.Seed, d.Route, d.Err)
}

// resultBytes is the comparison currency for every route: the shared
// CLI/server JSON codec, marshaled (Go marshals maps with sorted keys, so
// equal results produce equal bytes).
func resultBytes(res *core.Result, spec *arch.Spec) []byte {
	b, err := json.Marshal(serve.NewResultJSON(res, spec))
	if err != nil {
		panic(err)
	}
	return b
}

// RunPoint feeds one generated point through every evaluation route the
// repo ships and fails on the first divergence:
//
//  1. cold core.Evaluate on Root (the reference),
//  2. core.Compile + Program.Evaluate,
//  3. Program.WithTiling re-binding (Alt-compiled program evaluating Root,
//     and Root-compiled program evaluating Alt against a cold Alt run),
//  4. Program.EvaluateBatch over [Root, Alt, Root] (the repeat proves the
//     shared scratch arena carries no state between items),
//  5. Program.EvaluateDelta chained Root → Alt → Root through one
//     DeltaState (incremental re-evaluation in both directions),
//  6. notation round-trip: Parse(Print(Root)) evaluated locally,
//  7. the HTTP service: POST /v1/evaluate with arch_spec + workload_spec +
//     notation, for both Root and Alt (the second request is a retile of
//     the first, a result-cache miss), byte-comparing served results,
//  8. YAML config round-trip: yamlfe.Render(spec, graph, Root) loaded back
//     and evaluated locally, then POST /v1/evaluate with config_yaml —
//     the Timeloop-style frontend must name the same design point.
//
// baseURL may be empty to skip the HTTP route (used by the minimizer,
// which re-checks candidates locally for speed unless the divergence was
// HTTP-specific).
func RunPoint(p *Point, baseURL string, client *http.Client) error {
	fail := func(route string, err error) error {
		return &Divergence{Seed: p.Seed, Route: route, Err: err}
	}
	ref, err := core.Evaluate(p.Root, p.Graph, p.Spec, p.Opts)
	if err != nil {
		return fail("cold", err)
	}
	refBytes := resultBytes(ref, p.Spec)

	prog, err := core.Compile(p.Root, p.Graph, p.Spec)
	if err != nil {
		return fail("compile", err)
	}
	res2, err := prog.Evaluate(context.Background(), p.Opts)
	if err != nil {
		return fail("compiled", err)
	}
	if b := resultBytes(res2, p.Spec); !bytes.Equal(b, refBytes) {
		return fail("compiled", diffBytes(refBytes, b))
	}

	altProg, err := core.Compile(p.Alt, p.Graph, p.Spec)
	if err != nil {
		return fail("compile-alt", err)
	}
	rebound, err := altProg.WithTiling(p.Root)
	if err != nil {
		return fail("rebind", err)
	}
	res3, err := rebound.Evaluate(context.Background(), p.Opts)
	if err != nil {
		return fail("rebind", err)
	}
	if b := resultBytes(res3, p.Spec); !bytes.Equal(b, refBytes) {
		return fail("rebind", diffBytes(refBytes, b))
	}
	altRef, err := core.Evaluate(p.Alt, p.Graph, p.Spec, p.Opts)
	if err != nil {
		return fail("cold-alt", err)
	}
	altBytes := resultBytes(altRef, p.Spec)
	reboundAlt, err := prog.WithTiling(p.Alt)
	if err != nil {
		return fail("rebind-alt", err)
	}
	res3b, err := reboundAlt.Evaluate(context.Background(), p.Opts)
	if err != nil {
		return fail("rebind-alt", err)
	}
	if b := resultBytes(res3b, p.Spec); !bytes.Equal(b, altBytes) {
		return fail("rebind-alt", diffBytes(altBytes, b))
	}

	batchRes, batchErrs := prog.EvaluateBatch(context.Background(), []*core.Node{p.Root, p.Alt, p.Root}, p.Opts)
	wantBatch := [][]byte{refBytes, altBytes, refBytes}
	for i, berr := range batchErrs {
		if berr != nil {
			return fail("batch", fmt.Errorf("item %d: %w", i, berr))
		}
		if b := resultBytes(batchRes[i], p.Spec); !bytes.Equal(b, wantBatch[i]) {
			return fail("batch", fmt.Errorf("item %d: %w", i, diffBytes(wantBatch[i], b)))
		}
	}

	ds := prog.NewDelta(p.Opts)
	for i, step := range []struct {
		root *core.Node
		want []byte
	}{{p.Root, refBytes}, {p.Alt, altBytes}, {p.Root, refBytes}} {
		res5, err := prog.EvaluateDelta(context.Background(), ds, step.root, p.Opts)
		if err != nil {
			return fail("delta", fmt.Errorf("step %d: %w", i, err))
		}
		if b := resultBytes(res5, p.Spec); !bytes.Equal(b, step.want) {
			return fail("delta", fmt.Errorf("step %d: %w", i, diffBytes(step.want, b)))
		}
	}

	src := notation.Print(p.Root)
	parsed, err := notation.Parse(src, p.Graph)
	if err != nil {
		return fail("notation", fmt.Errorf("reparse of printed tree: %w\n%s", err, src))
	}
	res4, err := core.Evaluate(parsed, p.Graph, p.Spec, p.Opts)
	if err != nil {
		return fail("notation", err)
	}
	if b := resultBytes(res4, p.Spec); !bytes.Equal(b, refBytes) {
		return fail("notation", diffBytes(refBytes, b))
	}

	ysrc := yamlfe.Render(p.Spec, p.Graph, p.Root)
	cfg, err := yamlfe.LoadStrict(ysrc)
	if err != nil {
		return fail("yaml", fmt.Errorf("reload of rendered config: %w\n%s", err, ysrc))
	}
	res6, err := core.Evaluate(cfg.Root, cfg.Graph, cfg.Spec, p.Opts)
	if err != nil {
		return fail("yaml", err)
	}
	if b := resultBytes(res6, cfg.Spec); !bytes.Equal(b, refBytes) {
		return fail("yaml", diffBytes(refBytes, b))
	}

	if baseURL != "" {
		if err := checkHTTP(p, baseURL, client, src, refBytes); err != nil {
			return fail("http", err)
		}
		if err := checkHTTP(p, baseURL, client, notation.Print(p.Alt), altBytes); err != nil {
			return fail("http-alt", err)
		}
		if err := checkHTTPConfig(p, baseURL, client, ysrc, refBytes); err != nil {
			return fail("http-yaml", err)
		}
	}
	return nil
}

// checkHTTPConfig posts the rendered YAML config through the config_yaml
// field and byte-compares the served result to the local reference.
func checkHTTPConfig(p *Point, baseURL string, client *http.Client, ysrc string, want []byte) error {
	req := serve.EvaluateRequest{
		ConfigYAML:        ysrc,
		SkipCapacityCheck: p.Opts.SkipCapacityCheck,
		SkipPECheck:       p.Opts.SkipPECheck,
		DisableRetention:  p.Opts.DisableRetention,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	httpResp, err := client.Post(baseURL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", httpResp.StatusCode, raw)
	}
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	got, err := json.Marshal(resp.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return diffBytes(want, got)
	}
	return nil
}

func checkHTTP(p *Point, baseURL string, client *http.Client, src string, want []byte) error {
	req := serve.EvaluateRequest{
		ArchSpec:          arch.FormatSpec(p.Spec),
		WorkloadSpec:      workload.CanonicalGraph(p.Graph),
		Notation:          src,
		SkipCapacityCheck: p.Opts.SkipCapacityCheck,
		SkipPECheck:       p.Opts.SkipPECheck,
		DisableRetention:  p.Opts.DisableRetention,
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	httpResp, err := client.Post(baseURL+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", httpResp.StatusCode, raw)
	}
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	got, err := json.Marshal(resp.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return diffBytes(want, got)
	}
	return nil
}

// diffBytes points at the first byte where two marshaled results part ways,
// with a little context on each side.
func diffBytes(want, got []byte) error {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	at := n
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			at = i
			break
		}
	}
	window := func(b []byte) string {
		lo, hi := at-40, at+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return string(b[lo:hi])
	}
	return fmt.Errorf("results diverge at byte %d:\nwant ...%s...\n got ...%s...", at, window(want), window(got))
}

// Minimize shrinks a failing point while the predicate keeps failing. It
// tries, to fixpoint: converting spatial loops to temporal, relaxing
// bindings to Seq, and deleting a loop whose dim is fully dominated by its
// node (shrinking the workload dim to match, so the tiling stays exact).
// Alt is re-derived as a clone so the reduced reproducer stays
// self-consistent across the rebind route.
func Minimize(p *Point, failing func(*Point) bool) *Point {
	cur := p
	for budget := 200; budget > 0; {
		next := shrinkOnce(cur, failing, &budget)
		if next == nil {
			break
		}
		cur = next
	}
	return cur
}

func shrinkOnce(p *Point, failing func(*Point) bool, budget *int) *Point {
	try := func(cand *Point) *Point {
		if *budget <= 0 {
			return nil
		}
		*budget--
		if failing(cand) {
			return cand
		}
		return nil
	}
	var nodes []*core.Node
	p.Root.Walk(func(n *core.Node) { nodes = append(nodes, n) })

	// 1. Spatial → temporal, one loop at a time.
	for ni, n := range nodes {
		for li, l := range n.Loops {
			if l.Kind != core.Spatial {
				continue
			}
			root := p.Root.Clone()
			var clones []*core.Node
			root.Walk(func(m *core.Node) { clones = append(clones, m) })
			clones[ni].Loops[li].Kind = core.Temporal
			if got := try(rederive(p, root, p.Graph)); got != nil {
				return got
			}
		}
	}
	// 2. Bindings → Seq.
	for ni, n := range nodes {
		if n.IsLeaf() || n.Binding == core.Seq {
			continue
		}
		root := p.Root.Clone()
		var clones []*core.Node
		root.Walk(func(m *core.Node) { clones = append(clones, m) })
		clones[ni].Binding = core.Seq
		if got := try(rederive(p, root, p.Graph)); got != nil {
			return got
		}
	}
	// 3. Dominated-dim shrink: a loop at node n over dim d can be deleted —
	// with the graph dim divided by its extent — when every leaf using d
	// lies inside n's subtree, so no other loop's coverage changes.
	for ni, n := range nodes {
		for li, l := range n.Loops {
			if l.Extent <= 1 {
				continue
			}
			if !subtreeOwnsDim(p.Root, n, l.Dim) {
				continue
			}
			g2, err := shrinkGraphDim(p.Graph, l.Dim, l.Extent)
			if err != nil {
				continue
			}
			root := p.Root.Clone()
			var clones []*core.Node
			root.Walk(func(m *core.Node) { clones = append(clones, m) })
			tgt := clones[ni]
			tgt.Loops = append(append([]core.Loop{}, tgt.Loops[:li]...), tgt.Loops[li+1:]...)
			if !retarget(root, g2) {
				continue
			}
			if got := try(rederive(p, root, g2)); got != nil {
				return got
			}
		}
	}
	return nil
}

// subtreeOwnsDim reports whether every leaf of root that uses dim lies in
// n's subtree.
func subtreeOwnsDim(root, n *core.Node, dim string) bool {
	inside := map[*core.Node]bool{}
	n.Walk(func(m *core.Node) { inside[m] = true })
	owns := true
	root.Walk(func(m *core.Node) {
		if m.IsLeaf() && m.Op.HasDim(dim) && !inside[m] {
			owns = false
		}
	})
	return owns
}

// rederive builds a candidate point around a transformed root: Alt becomes
// a plain clone so rebind and HTTP-alt routes remain well-formed.
func rederive(p *Point, root *core.Node, g *workload.Graph) *Point {
	return &Point{
		Seed:  p.Seed,
		Spec:  p.Spec,
		Graph: g,
		Root:  root,
		Alt:   root.Clone(),
		Opts:  p.Opts,
	}
}

// shrinkGraphDim rebuilds the graph with dim's size divided by factor.
func shrinkGraphDim(g *workload.Graph, dim string, factor int) (*workload.Graph, error) {
	elem := 2
	for _, t := range g.Tensors {
		elem = t.ElemBytes
		break
	}
	ops := make([]*workload.Operator, len(g.Ops))
	for i, op := range g.Ops {
		cp := *op
		cp.Dims = append([]workload.Dim{}, op.Dims...)
		for j, d := range cp.Dims {
			if d.Name == dim {
				if d.Size%factor != 0 || d.Size/factor < 1 {
					return nil, fmt.Errorf("dim %s size %d not divisible by %d", dim, d.Size, factor)
				}
				cp.Dims[j].Size = d.Size / factor
			}
		}
		ops[i] = &cp
	}
	g2, err := workload.NewGraph(g.Name, elem, ops...)
	if err != nil {
		return nil, err
	}
	for name, t := range g.Tensors {
		if t.Density > 0 && t.Density < 1 {
			if err := g2.SetDensity(name, t.Density); err != nil {
				return nil, err
			}
		}
	}
	return g2, nil
}

// retarget points a cloned tree's leaves at the equivalent operators of a
// rebuilt graph.
func retarget(root *core.Node, g *workload.Graph) bool {
	ok := true
	root.Walk(func(n *core.Node) {
		if !n.IsLeaf() {
			return
		}
		op := g.Op(n.Op.Name)
		if op == nil {
			ok = false
			return
		}
		n.Op = op
	})
	return ok
}

// Reproducer renders a self-contained textual reproduction of a point:
// seed, options, and the exact arch, workload and both mappings in their
// parseable text formats. Feeding the three specs back through
// arch.ParseSpec, workload.ParseGraph and notation.Parse reconstructs the
// point without the generator.
func (p *Point) Reproducer() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# conformance reproducer, seed %d\n", p.Seed)
	fmt.Fprintf(&b, "# options: skip_capacity=%v skip_pe=%v disable_retention=%v\n",
		p.Opts.SkipCapacityCheck, p.Opts.SkipPECheck, p.Opts.DisableRetention)
	b.WriteString("--- arch ---\n")
	b.WriteString(arch.FormatSpec(p.Spec))
	b.WriteString("--- workload ---\n")
	b.WriteString(workload.CanonicalGraph(p.Graph))
	b.WriteString("--- mapping (root) ---\n")
	b.WriteString(notation.Print(p.Root))
	b.WriteString("--- mapping (alt) ---\n")
	b.WriteString(notation.Print(p.Alt))
	return b.String()
}
