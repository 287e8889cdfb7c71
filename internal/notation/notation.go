// Package notation implements a textual form of TileFlow's tile-centric
// notation (Sec 4.2). The paper writes
//
//	T⁰₁ = {i1, l1}(T⁰₀, T¹₀)   Pipe(T⁰₀, T¹₀)   Sp(i1)
//
// which this package renders in a line-based ASCII grammar that also pins
// loop extents and memory levels (the paper's formulation leaves them to
// the mapper):
//
//	leaf T0_0 = op A { Sp(i:4), l:32, k:32 }
//	leaf T1_0 = op B { Sp(i:4), l:32 }
//	tile T0_1 @L1 = { Sp(i:2), l:2 } (T0_0, T1_0)
//	tile T0_2 @L2 = { i:4 } (T0_1, T1_1)
//	bind Pipe(T0_0, T1_0)
//
// Loops are listed outermost first; Sp(...) marks a spatial loop, bare
// dim:extent a temporal one. A bind statement sets the inter-tile primitive
// of the named tiles' common parent (the default is Seq, as in the paper).
// Parse and Print round-trip.
//
// The parser is a collecting front-end: ParseSource accumulates every
// problem as a coded, positioned diagnostic instead of stopping at the
// first, and returns a SourceMap locating each tile, loop, and binding in
// the source so later analysis stages (internal/check) can report at the
// offending token.
package notation

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/workload"
)

// Parse reads a dataflow description and returns the root of the analysis
// tree. Operators are resolved by name against the graph. On failure the
// returned error is a diag.List carrying every problem found, each with a
// stable code and source span.
func Parse(src string, g *workload.Graph) (*core.Node, error) {
	root, _, diags := ParseSource(src, g)
	if diags.HasErrors() {
		return nil, diags
	}
	return root, nil
}

// ParseSource is the collecting form of Parse: it accumulates all
// diagnostics rather than stopping at the first, and additionally returns
// a SourceMap from tile names to their defining spans. The root is nil
// exactly when the diagnostics contain at least one error.
func ParseSource(src string, g *workload.Graph) (*core.Node, *SourceMap, diag.List) {
	p := &parser{
		g:     g,
		tiles: map[string]*core.Node{},
		used:  map[string]bool{},
		sm:    &SourceMap{nodes: map[string]NodeSpans{}},
	}
	off := 0
	for i, raw := range strings.Split(src, "\n") {
		ls := lineScan{raw: raw, off: off, line: i + 1}
		off += len(raw) + 1
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		p.line(ls)
	}
	root := p.finish()
	diags := p.r.List()
	if diags.HasErrors() {
		return nil, p.sm, diags
	}
	return root, p.sm, diags
}

type parser struct {
	g     *workload.Graph
	r     diag.Reporter
	tiles map[string]*core.Node
	used  map[string]bool // tiles referenced as children
	binds []bindStmt
	sm    *SourceMap
}

type bindStmt struct {
	binding core.Binding
	tiles   []string
	spans   []diag.Span // one per tile, aligned with tiles
	stmt    diag.Span
}

func (p *parser) line(ls lineScan) {
	lo, hi := trimRange(ls.raw, 0, len(ls.raw))
	content := ls.raw[lo:hi]
	stmt := ls.span(lo, hi)
	switch {
	case strings.HasPrefix(content, "leaf "):
		p.leafLine(ls, lo+len("leaf "), hi, stmt)
	case strings.HasPrefix(content, "tile "):
		p.tileLine(ls, lo+len("tile "), hi, stmt)
	case strings.HasPrefix(content, "bind "):
		p.bindLine(ls, lo+len("bind "), hi, stmt)
	default:
		p.r.Reportf(CodeStmt, stmt, "", "expected leaf/tile/bind statement, got %q", content)
	}
}

// leafLine parses: <name> = op <opname> { loops } over ls.raw[lo:hi].
func (p *parser) leafLine(ls lineScan, lo, hi int, stmt diag.Span) {
	raw := ls.raw
	eq := strings.Index(raw[lo:hi], "=")
	if eq < 0 {
		p.r.Reportf(CodeLeaf, stmt, "", "leaf: missing '='")
		return
	}
	eq += lo
	na, nb := trimRange(raw, lo, eq)
	name := raw[na:nb]
	nameSpan := ls.span(na, nb)
	ra, rb := trimRange(raw, eq+1, hi)
	if !strings.HasPrefix(raw[ra:rb], "op ") {
		p.r.Reportf(CodeLeaf, ls.span(ra, rb), name, "leaf %s: expected 'op <name> {...}'", name)
		return
	}
	opLo := ra + len("op ")
	brace := strings.Index(raw[opLo:rb], "{")
	if brace < 0 {
		p.r.Reportf(CodeLeaf, ls.span(ra, rb), name, "leaf %s: missing loop block", name)
		return
	}
	brace += opLo
	oa, ob := trimRange(raw, opLo, brace)
	opName := raw[oa:ob]
	op := p.g.Op(opName)
	if op == nil {
		p.r.Reportf(CodeUnknownOp, ls.span(oa, ob), name, "leaf %s: unknown operator %q", name, opName)
	}
	// The loop region runs from the '{' to the end of the line, minus one
	// trailing '}' when present (the legacy parser tolerated its absence).
	la, lb := trimRange(raw, brace+1, rb)
	if lb > la && raw[lb-1] == '}' {
		la, lb = trimRange(raw, la, lb-1)
	}
	loops, loopSpans := p.parseLoops(ls, la, lb, name)
	if _, dup := p.tiles[name]; dup {
		p.r.Reportf(CodeDupTile, nameSpan, name, "duplicate tile %q", name)
		return
	}
	p.tiles[name] = core.Leaf(name, op, loops...)
	p.sm.nodes[name] = NodeSpans{Stmt: stmt, Name: nameSpan, Op: ls.span(oa, ob), Loops: loopSpans}
}

// tileLine parses: <name> @L<level> = { loops } ( children ) over ls.raw[lo:hi].
func (p *parser) tileLine(ls lineScan, lo, hi int, stmt diag.Span) {
	raw := ls.raw
	eq := strings.Index(raw[lo:hi], "=")
	if eq < 0 {
		p.r.Reportf(CodeTile, stmt, "", "tile: missing '='")
		return
	}
	eq += lo
	// The level marker is the last "@L" before '=': generated tile names
	// may contain "@L" themselves (Layerwise's "QK@L1", GA's "op@L2").
	at := strings.LastIndex(raw[lo:eq], "@L")
	if at < 0 {
		ha, hb := trimRange(raw, lo, eq)
		p.r.Reportf(CodeTile, ls.span(ha, hb), raw[ha:hb], "tile %s: missing '@L<level>'", raw[ha:hb])
		return
	}
	at += lo
	na, nb := trimRange(raw, lo, at)
	name := raw[na:nb]
	nameSpan := ls.span(na, nb)
	la, lb := trimRange(raw, at+2, eq)
	levelSpan := ls.span(at, lb)
	level, err := strconv.Atoi(raw[la:lb])
	if err != nil {
		p.r.Reportf(CodeTile, levelSpan, name, "tile %s: bad level %q", name, raw[la:lb])
		return
	}
	// The child list starts at the first '(' after the loop block's
	// closing brace (loops themselves may contain parentheses: Sp(i:2)).
	closeBrace := strings.Index(raw[eq+1:hi], "}")
	if closeBrace < 0 {
		p.r.Reportf(CodeTile, ls.span(eq+1, hi), name, "tile %s: loops must be brace-delimited", name)
		return
	}
	closeBrace += eq + 1
	rs, _ := trimRange(raw, eq+1, hi)
	if rs >= closeBrace || raw[rs] != '{' {
		p.r.Reportf(CodeTile, ls.span(eq+1, hi), name, "tile %s: loops must be brace-delimited", name)
		return
	}
	ka, kb := trimRange(raw, closeBrace+1, hi)
	if ka >= kb || raw[ka] != '(' {
		p.r.Reportf(CodeTile, ls.span(closeBrace+1, hi), name, "tile %s: missing child list", name)
		return
	}
	ka, kb = trimRange(raw, ka+1, kb)
	if kb > ka && raw[kb-1] == ')' {
		ka, kb = trimRange(raw, ka, kb-1)
	}
	loops, loopSpans := p.parseLoops(ls, rs+1, closeBrace, name)
	var kids []*core.Node
	var kidSpans []diag.Span
	bad := false
	for _, seg := range splitRanges(raw, ka, kb) {
		kname := raw[seg[0]:seg[1]]
		kspan := ls.span(seg[0], seg[1])
		kid, ok := p.tiles[kname]
		if !ok {
			p.r.Reportf(CodeUnknownChild, kspan, name, "tile %s: unknown child %q (children must be defined first)", name, kname)
			bad = true
			continue
		}
		if p.used[kname] {
			p.r.Reportf(CodeChildReused, kspan, name, "tile %s: child %q already has a parent", name, kname)
			bad = true
			continue
		}
		p.used[kname] = true
		kids = append(kids, kid)
		kidSpans = append(kidSpans, kspan)
	}
	if len(kids) == 0 {
		if !bad {
			p.r.Reportf(CodeTile, stmt, name, "tile %s: no children", name)
		}
		return
	}
	if _, dup := p.tiles[name]; dup {
		p.r.Reportf(CodeDupTile, nameSpan, name, "duplicate tile %q", name)
		return
	}
	p.tiles[name] = core.Tile(name, level, core.Seq, loops, kids...)
	p.sm.nodes[name] = NodeSpans{Stmt: stmt, Name: nameSpan, Level: levelSpan, Loops: loopSpans, Children: kidSpans}
}

// bindLine parses: <Binding>(t1, t2, ...) over ls.raw[lo:hi].
func (p *parser) bindLine(ls lineScan, lo, hi int, stmt diag.Span) {
	raw := ls.raw
	paren := strings.Index(raw[lo:hi], "(")
	if paren < 0 {
		p.r.Reportf(CodeBind, stmt, "", "bind: expected <Primitive>(tiles)")
		return
	}
	paren += lo
	pa, pb := trimRange(raw, lo, paren)
	prim := raw[pa:pb]
	var b core.Binding
	switch prim {
	case "Seq":
		b = core.Seq
	case "Shar":
		b = core.Shar
	case "Para":
		b = core.Para
	case "Pipe":
		b = core.Pipe
	default:
		p.r.Reportf(CodeBindPrim, ls.span(pa, pb), "", "bind: unknown primitive %q", prim)
		return
	}
	aa, ab := trimRange(raw, paren+1, hi)
	if ab > aa && raw[ab-1] == ')' {
		aa, ab = trimRange(raw, aa, ab-1)
	}
	var tiles []string
	var tileSpans []diag.Span
	for _, seg := range splitRanges(raw, aa, ab) {
		tiles = append(tiles, raw[seg[0]:seg[1]])
		tileSpans = append(tileSpans, ls.span(seg[0], seg[1]))
	}
	p.binds = append(p.binds, bindStmt{binding: b, tiles: tiles, spans: tileSpans, stmt: stmt})
	p.sm.binds = append(p.sm.binds, BindSpans{Stmt: stmt, Prim: ls.span(pa, pb), Tiles: tileSpans})
}

func (p *parser) finish() *core.Node {
	// The root is the unique unreferenced tile.
	var roots []string
	for name := range p.tiles {
		if !p.used[name] {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)
	if len(roots) != 1 {
		p.r.Reportf(CodeRootCount, diag.Span{}, "", "want exactly one root tile, found %d (%v)", len(roots), roots)
		return nil
	}
	root := p.tiles[roots[0]]
	// Apply bind statements: the named tiles must share a parent.
	parent := map[*core.Node]*core.Node{}
	root.Walk(func(n *core.Node) {
		for _, c := range n.Children {
			parent[c] = n
		}
	})
	for _, b := range p.binds {
		if len(b.tiles) == 0 {
			continue
		}
		var common *core.Node
		ok := true
		for i, name := range b.tiles {
			tile, found := p.tiles[name]
			if !found {
				p.r.Reportf(CodeBindTile, b.spans[i], name, "bind references unknown tile %q", name)
				ok = false
				continue
			}
			par := parent[tile]
			if par == nil {
				p.r.Reportf(CodeBindRoot, b.spans[i], name, "bind target %q has no parent", name)
				ok = false
				continue
			}
			if common == nil {
				common = par
			} else if common != par {
				p.r.Reportf(CodeBindSplit, b.stmt, name, "bind targets %v do not share a parent", b.tiles)
				ok = false
				break
			}
		}
		if ok && common != nil {
			common.Binding = b.binding
		}
	}
	return root
}

// parseLoops reads "Sp(i:4), l:32, k:32" from ls.raw[lo:hi], reporting a
// diagnostic per malformed item and returning the loops that did parse
// together with their item spans.
func (p *parser) parseLoops(ls lineScan, lo, hi int, node string) ([]core.Loop, []diag.Span) {
	var loops []core.Loop
	var spans []diag.Span
	for _, seg := range splitRanges(ls.raw, lo, hi) {
		a, b := seg[0], seg[1]
		item := ls.raw[a:b]
		itemSpan := ls.span(a, b)
		ia, ib := a, b
		spatial := false
		if strings.HasPrefix(item, "Sp(") && strings.HasSuffix(item, ")") {
			spatial = true
			ia, ib = a+len("Sp("), b-1
		}
		colon := strings.Index(ls.raw[ia:ib], ":")
		if colon < 0 {
			p.r.Reportf(CodeLoop, itemSpan, node, "bad loop %q (want dim:extent)", item)
			continue
		}
		da, db := trimRange(ls.raw, ia, ia+colon)
		ea, eb := trimRange(ls.raw, ia+colon+1, ib)
		ext, err := strconv.Atoi(ls.raw[ea:eb])
		if err != nil || ext < 1 {
			p.r.Reportf(CodeLoop, ls.span(ea, eb), node, "bad loop extent in %q", item)
			continue
		}
		dim := ls.raw[da:db]
		if spatial {
			loops = append(loops, core.S(dim, ext))
		} else {
			loops = append(loops, core.T(dim, ext))
		}
		spans = append(spans, itemSpan)
	}
	return loops, spans
}

// Print renders a tree back into the notation, children before parents so
// the output re-parses.
func Print(root *core.Node) string {
	var b strings.Builder
	var binds []string
	var visit func(n *core.Node)
	visit = func(n *core.Node) {
		for _, c := range n.Children {
			visit(c)
		}
		loops := make([]string, len(n.Loops))
		for i, l := range n.Loops {
			if l.Kind == core.Spatial {
				loops[i] = "Sp(" + l.Dim + ":" + strconv.Itoa(l.Extent) + ")"
			} else {
				loops[i] = l.Dim + ":" + strconv.Itoa(l.Extent)
			}
		}
		if n.IsLeaf() {
			b.WriteString("leaf " + n.Name + " = op " + n.Op.Name + " { " + strings.Join(loops, ", ") + " }\n")
			return
		}
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = c.Name
		}
		b.WriteString("tile " + n.Name + " @L" + strconv.Itoa(n.Level) + " = { " + strings.Join(loops, ", ") + " } (" + strings.Join(kids, ", ") + ")\n")
		if n.Binding != core.Seq {
			binds = append(binds, "bind "+n.Binding.String()+"("+strings.Join(kids, ", ")+")")
		}
	}
	visit(root)
	for _, s := range binds {
		b.WriteString(s + "\n")
	}
	return b.String()
}
