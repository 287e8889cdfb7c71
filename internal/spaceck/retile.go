package spaceck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/workload"
)

// Retile wraps a concrete analysis tree as a dataflow template whose
// factor space is the set of retilings of that tree: every loop keeps its
// node, dimension and kind, but its extent becomes a searchable factor
// ranging over the divisors of the dimension's trip count. Per (leaf, dim)
// the first temporal leaf loop is held back as the remainder: Build
// derives its extent from the dim size and the other factors on the path,
// so coverage holds by construction whenever the factors divide. The
// template declares a stable structure (only loop extents vary), and the
// concrete input tree is exactly Build(DefaultFactors()) when the input
// itself satisfies coverage — which is what lets the conformance soundness
// gate compare narrowed domains against points the pipeline accepts.
//
// This is what gives `tileflow analyze` a meaning on notation and YAML
// config inputs: the analyzed space is "your mapping, retiled every legal
// way", and an empty space is the proof that no retiling of the given
// structure can satisfy the architecture.
func Retile(name string, root *core.Node, g *workload.Graph) (dataflows.Dataflow, error) {
	if root == nil || g == nil {
		return nil, fmt.Errorf("spaceck: retile needs a tree and a graph")
	}
	rt := &retile{name: name, g: g, root: root}
	rt.index()
	return rt, nil
}

// loopRef addresses one loop by preorder node index and loop index.
type loopRef struct {
	node, loop int
}

type retile struct {
	name  string
	g     *workload.Graph
	root  *core.Node
	nodes []*core.Node // preorder
	specs []dataflows.FactorSpec
	refs  []loopRef // parallel to specs
	// remainder marks the loops Build derives instead of reading from the
	// factor assignment, keyed by loopRef.
	remainder map[loopRef]bool
	defaults  map[string]int
}

func (rt *retile) Name() string           { return rt.name }
func (rt *retile) Graph() *workload.Graph { return rt.g }
func (rt *retile) Factors() []dataflows.FactorSpec {
	return append([]dataflows.FactorSpec(nil), rt.specs...)
}
func (rt *retile) DefaultFactors() map[string]int {
	out := make(map[string]int, len(rt.defaults))
	for k, v := range rt.defaults {
		out[k] = v
	}
	return out
}

// index walks the tree once, assigning every non-remainder loop a factor
// key "<node>.<dim>#<i>" (deduplicated if node names repeat) with the
// dimension's trip count as Total.
func (rt *retile) index() {
	rt.remainder = map[loopRef]bool{}
	rt.defaults = map[string]int{}
	seen := map[string]int{}
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		ni := len(rt.nodes)
		rt.nodes = append(rt.nodes, n)
		for li, l := range n.Loops {
			if n.IsLeaf() && l.Kind == core.Temporal && rt.firstTemporal(n, l.Dim) == li {
				rt.remainder[loopRef{ni, li}] = true
				continue
			}
			total := rt.dimSize(n, l.Dim)
			if total <= 0 {
				// A loop over a dim no operator below iterates: every
				// assignment trips the loop-dim rule; give the factor its
				// current extent as the (degenerate) trip count.
				total = l.Extent
			}
			key := fmt.Sprintf("%s.%s#%d", n.Name, l.Dim, li)
			if c := seen[key]; c > 0 {
				key = fmt.Sprintf("%s~%d", key, c)
			}
			seen[fmt.Sprintf("%s.%s#%d", n.Name, l.Dim, li)]++
			rt.specs = append(rt.specs, dataflows.FactorSpec{
				Key: key, Total: total,
				Doc: fmt.Sprintf("retiling of loop %s at tile %s", l, n.Name),
			})
			rt.refs = append(rt.refs, loopRef{ni, li})
			def := l.Extent
			if def < 1 || total < 1 || total%def != 0 {
				def = 1
			}
			rt.defaults[key] = def
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(rt.root)
}

// firstTemporal is the index of the first temporal loop over dim at n, -1
// if none.
func (rt *retile) firstTemporal(n *core.Node, dim string) int {
	for li, l := range n.Loops {
		if l.Kind == core.Temporal && l.Dim == dim {
			return li
		}
	}
	return -1
}

// dimSize is the trip count of dim below n: the dim's size in the first
// subtree operator iterating it.
func (rt *retile) dimSize(n *core.Node, dim string) int {
	size := 0
	var walk func(m *core.Node) bool
	walk = func(m *core.Node) bool {
		if m.IsLeaf() {
			for _, d := range m.Op.Dims {
				if d.Name == dim {
					size = d.Size
					return true
				}
			}
			return false
		}
		for _, c := range m.Children {
			if walk(c) {
				return true
			}
		}
		return false
	}
	walk(n)
	return size
}

// Build clones the tree, installs the factor extents, and derives each
// remainder loop so every (operator, dim) path product equals the dim
// size. Assignments whose factors do not divide the remaining extent fail,
// mirroring the divisibility errors of the named templates.
func (rt *retile) Build(f map[string]int) (*core.Node, error) {
	clones := make([]*core.Node, 0, len(rt.nodes))
	var cloneWalk func(n *core.Node) *core.Node
	cloneWalk = func(n *core.Node) *core.Node {
		c := &core.Node{Name: n.Name, Level: n.Level, Binding: n.Binding, Op: n.Op,
			Loops: append([]core.Loop(nil), n.Loops...)}
		clones = append(clones, c)
		for _, ch := range n.Children {
			c.Children = append(c.Children, cloneWalk(ch))
		}
		return c
	}
	root := cloneWalk(rt.root)

	for fi, spec := range rt.specs {
		v, ok := f[spec.Key]
		if !ok || v <= 0 {
			v = 1
		}
		if spec.Total > 0 && spec.Total%v != 0 {
			return nil, fmt.Errorf("spaceck: factor %s=%d does not divide %d", spec.Key, v, spec.Total)
		}
		ref := rt.refs[fi]
		clones[ref.node].Loops[ref.loop].Extent = v
	}

	// Derive remainders: per (leaf, dim) the product of the fixed loops on
	// the root-to-leaf path must divide the dim size.
	var derive func(n *core.Node, path []*core.Node) error
	derive = func(n *core.Node, path []*core.Node) error {
		path = append(path, n)
		if n.IsLeaf() {
			for _, d := range n.Op.Dims {
				prod := 1
				remLoop := -1
				for _, m := range path {
					for li, l := range m.Loops {
						if l.Dim != d.Name {
							continue
						}
						if m == n && l.Kind == core.Temporal && remLoop < 0 {
							remLoop = li
							continue
						}
						prod *= l.Extent
					}
				}
				if prod <= 0 || d.Size%prod != 0 {
					return fmt.Errorf("spaceck: factors over dim %s multiply to %d, not a divisor of %d", d.Name, prod, d.Size)
				}
				q := d.Size / prod
				if remLoop >= 0 {
					n.Loops[remLoop].Extent = q
				} else if q > 1 {
					n.Loops = append(n.Loops, core.T(d.Name, q))
				}
			}
			return nil
		}
		for _, c := range n.Children {
			if err := derive(c, path); err != nil {
				return err
			}
		}
		return nil
	}
	if err := derive(root, nil); err != nil {
		return nil, err
	}
	return root, nil
}
