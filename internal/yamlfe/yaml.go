// Package yamlfe loads Timeloop-style YAML configurations — the
// architecture / problem / mapping triple the upstream TileFlow frontend
// speaks — onto this repository's native types: arch.Spec, workload.Graph
// and the core.Node analysis tree.
//
// The parser reads a YAML subset sufficient for those configs: block
// mappings, block and single-line flow sequences/mappings, plain and
// quoted scalars, and '#' comments. Anchors, aliases, multi-document
// streams and multi-line scalars are not supported. Every problem is
// reported as a coded, positioned diag.Diagnostic (TF-YAML-*), mirroring
// how notation.ParseSource reports errors, and parsing collects every
// problem instead of stopping at the first.
package yamlfe

import (
	"strings"

	"repro/internal/diag"
)

// kind classifies a parsed YAML node.
type kind int

const (
	kindScalar kind = iota
	kindMapping
	kindSequence
)

func (k kind) String() string {
	switch k {
	case kindMapping:
		return "mapping"
	case kindSequence:
		return "sequence"
	}
	return "scalar"
}

// node is one parsed YAML value. Mapping entries keep source order;
// duplicate keys are reported and dropped.
type node struct {
	kind kind
	span diag.Span

	// mapping
	keys     []string
	keySpans []diag.Span
	vals     []*node

	// sequence
	items []*node

	// scalar
	text   string
	quoted bool
}

// field returns the value for key, or nil.
func (n *node) field(key string) *node {
	if n == nil || n.kind != kindMapping {
		return nil
	}
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

// keySpan returns the span of the given key, falling back to the node span.
func (n *node) keySpan(key string) diag.Span {
	if n != nil && n.kind == kindMapping {
		for i, k := range n.keys {
			if k == key {
				return n.keySpans[i]
			}
		}
	}
	if n != nil {
		return n.span
	}
	return diag.Span{}
}

// isNull reports whether the node is the empty scalar produced by a key
// with no value.
func (n *node) isNull() bool {
	return n.kind == kindScalar && n.text == "" && !n.quoted
}

// yline is one pre-scanned source line: indentation, the content range
// [lo, hi) with comments and trailing blanks stripped, and its position.
type yline struct {
	raw    string
	off    int // byte offset of the line start in the source
	num    int // 1-based line number
	indent int
	lo, hi int
}

// parser parses the pre-scanned lines into a node tree, collecting
// diagnostics and recovering by skipping lines so one malformed entry
// does not hide the rest.
type parser struct {
	r     diag.Reporter
	lines []yline
	i     int
}

// parseYAML parses src into a root node. The root is nil when the
// document has no content; syntax problems are reported to r.
func parseYAML(src string, r *diag.Reporter) *node {
	p := &parser{r: *r}
	defer func() { *r = p.r }()
	p.scan(src)
	if len(p.lines) == 0 {
		return nil
	}
	first := p.lines[0]
	root := p.parseNode(first.indent)
	if p.i < len(p.lines) {
		ln := p.lines[p.i]
		p.r.Reportf(CodeSyntax, p.span(ln, ln.lo, ln.hi), "",
			"unexpected content after the top-level %s", root.kind)
	}
	return root
}

// scan splits src into content-bearing lines, stripping comments (a '#'
// at line start or after a blank, outside quotes) and trailing blanks,
// and rejecting tabs in indentation.
func (p *parser) scan(src string) {
	off := 0
	for num, raw := range strings.Split(src, "\n") {
		ln := yline{raw: raw, off: off, num: num + 1}
		off += len(raw) + 1
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			p.r.Reportf(CodeSyntax, p.span(ln, indent, indent+1), "",
				"tab in indentation; use spaces")
			continue
		}
		ln.indent = indent
		ln.lo = indent
		ln.hi = stripComment(raw, indent)
		for ln.hi > ln.lo && (raw[ln.hi-1] == ' ' || raw[ln.hi-1] == '\r') {
			ln.hi--
		}
		if ln.lo >= ln.hi {
			continue
		}
		content := raw[ln.lo:ln.hi]
		if indent == 0 && (content == "---" || content == "...") {
			continue
		}
		p.lines = append(p.lines, ln)
	}
}

// stripComment returns the end of the uncommented content of raw, scanning
// from lo while respecting single and double quotes.
func stripComment(raw string, lo int) int {
	quote := byte(0)
	for j := lo; j < len(raw); j++ {
		c := raw[j]
		switch {
		case quote == '"' && c == '\\':
			j++
		case quote != 0 && c == quote:
			quote = 0
		case quote == 0 && (c == '"' || c == '\''):
			quote = c
		case quote == 0 && c == '#' && (j == lo || raw[j-1] == ' ' || raw[j-1] == '\t'):
			return j
		}
	}
	return len(raw)
}

// span builds a diag.Span for raw[a:b) of line ln.
func (p *parser) span(ln yline, a, b int) diag.Span {
	return diag.Span{
		Start: diag.Pos{Offset: ln.off + a, Line: ln.num, Col: a + 1},
		End:   diag.Pos{Offset: ln.off + b, Line: ln.num, Col: b + 1},
	}
}

func (p *parser) cur() yline { return p.lines[p.i] }

// parseNode parses the value beginning at column col of the current line,
// consuming that line and any continuation lines.
func (p *parser) parseNode(col int) *node {
	ln := p.cur()
	c := ln.raw[col]
	switch {
	case c == '[' || c == '{':
		return p.parseFlowLine(col)
	case isDashAt(ln, col):
		return p.parseSequence(col)
	default:
		if colon := keyColon(ln, col); colon >= 0 {
			return p.parseMapping(col)
		}
		return p.parseScalarLine(col)
	}
}

// isDashAt reports whether line ln has a sequence dash at column col.
func isDashAt(ln yline, col int) bool {
	if col >= ln.hi || ln.raw[col] != '-' {
		return false
	}
	return col+1 >= ln.hi || ln.raw[col+1] == ' '
}

// keyColon finds the position of the mapping colon of the entry starting
// at column from of ln: a ':' outside quotes and brackets followed by a
// blank or the line end. Returns -1 when the rest of the line is not a
// mapping entry.
func keyColon(ln yline, from int) int {
	quote := byte(0)
	depth := 0
	for j := from; j < ln.hi; j++ {
		c := ln.raw[j]
		switch {
		case quote == '"' && c == '\\':
			j++
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
		case c == '"' || c == '\'':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0 && (j+1 >= ln.hi || ln.raw[j+1] == ' '):
			return j
		}
	}
	return -1
}

// parseSequence parses a block sequence whose dashes sit at column col.
// Like parseMapping, the first item may start mid-line (a nested sequence
// after an outer dash, "- - x"), where the line's indent is the outer
// column; continuation dashes are full lines indented exactly col.
func (p *parser) parseSequence(col int) *node {
	n := &node{kind: kindSequence}
	first := p.cur()
	n.span = p.span(first, col, col+1)
	for p.i < len(p.lines) {
		ln := p.cur()
		if !isDashAt(ln, col) || (len(n.items) > 0 && ln.indent != col) {
			break
		}
		start := p.i
		rest := col + 1
		for rest < ln.hi && ln.raw[rest] == ' ' {
			rest++
		}
		var item *node
		if rest >= ln.hi {
			p.i++
			if p.i < len(p.lines) && p.cur().indent > col {
				item = p.parseNode(p.cur().indent)
			} else {
				item = &node{kind: kindScalar, span: p.span(ln, col, col+1)}
			}
		} else {
			item = p.parseNode(rest)
		}
		n.items = append(n.items, item)
		n.span.End = item.span.End
		if p.i == start {
			// The item consumed nothing (degenerate nesting); skip the
			// line rather than loop on it forever.
			p.i++
		}
	}
	return n
}

// parseMapping parses a block mapping whose keys sit at column col. The
// first entry may start mid-line (after a sequence dash); continuation
// entries are full lines indented exactly col.
func (p *parser) parseMapping(col int) *node {
	n := &node{kind: kindMapping}
	ln := p.cur()
	n.span = p.span(ln, col, ln.hi)
	seen := map[string]bool{}
	for p.i < len(p.lines) {
		ln = p.cur()
		if ln.indent > col && len(n.keys) > 0 {
			p.r.Reportf(CodeSyntax, p.span(ln, ln.lo, ln.hi), "",
				"unexpected indentation (mapping keys at this level start at column %d)", col+1)
			p.i++
			continue
		}
		kcol := col
		if len(n.keys) == 0 {
			// first entry: starts at col on the current line by contract
		} else if ln.indent != col {
			break
		}
		colon := keyColon(ln, kcol)
		if colon < 0 {
			if len(n.keys) == 0 {
				// not reachable from parseNode, which checked keyColon
				break
			}
			break
		}
		key, keySpan, ok := p.parseKey(ln, kcol, colon)
		if !ok {
			p.i++
			continue
		}
		val := p.parseMapValue(ln, colon, col)
		if seen[key] {
			p.r.Reportf(CodeDupKey, keySpan, "", "duplicate key %q (first wins)", key)
		} else {
			seen[key] = true
			n.keys = append(n.keys, key)
			n.keySpans = append(n.keySpans, keySpan)
			n.vals = append(n.vals, val)
		}
		n.span.End = val.span.End
		if n.span.End.Line == 0 {
			n.span.End = keySpan.End
		}
	}
	return n
}

// parseKey extracts the mapping key in ln.raw[kcol:colon].
func (p *parser) parseKey(ln yline, kcol, colon int) (string, diag.Span, bool) {
	a, b := kcol, colon
	for b > a && ln.raw[b-1] == ' ' {
		b--
	}
	sp := p.span(ln, a, b)
	if a >= b {
		p.r.Reportf(CodeSyntax, p.span(ln, kcol, colon+1), "", "empty mapping key")
		return "", sp, false
	}
	raw := ln.raw[a:b]
	if raw[0] == '"' || raw[0] == '\'' {
		text, end, ok := unquote(ln.raw, a)
		if !ok || end != b {
			p.r.Reportf(CodeSyntax, sp, "", "bad quoted key %s", raw)
			return "", sp, false
		}
		return text, sp, true
	}
	return raw, sp, true
}

// parseMapValue parses the value of a mapping entry whose colon is at
// position colon of ln; col is the mapping's key column.
func (p *parser) parseMapValue(ln yline, colon, col int) *node {
	vstart := colon + 1
	for vstart < ln.hi && ln.raw[vstart] == ' ' {
		vstart++
	}
	if vstart < ln.hi {
		c := ln.raw[vstart]
		if c == '[' || c == '{' {
			return p.parseFlowLine(vstart)
		}
		return p.parseScalarLine(vstart)
	}
	p.i++
	if p.i < len(p.lines) {
		next := p.cur()
		if next.indent > col {
			return p.parseNode(next.indent)
		}
		if next.indent == col && isDashAt(next, col) {
			// A block sequence may sit at the same indent as its key.
			return p.parseSequence(col)
		}
	}
	return &node{kind: kindScalar, span: p.span(ln, colon, colon+1)}
}

// parseScalarLine parses a single-line scalar starting at column col and
// consumes the line.
func (p *parser) parseScalarLine(col int) *node {
	ln := p.cur()
	p.i++
	c := ln.raw[col]
	if c == '"' || c == '\'' {
		text, end, ok := unquote(ln.raw, col)
		if !ok {
			p.r.Reportf(CodeSyntax, p.span(ln, col, ln.hi), "", "unterminated quoted scalar")
			return &node{kind: kindScalar, span: p.span(ln, col, ln.hi), quoted: true}
		}
		if end != ln.hi {
			p.r.Reportf(CodeSyntax, p.span(ln, end, ln.hi), "",
				"trailing characters after quoted scalar")
		}
		return &node{kind: kindScalar, span: p.span(ln, col, end), text: text, quoted: true}
	}
	return &node{kind: kindScalar, span: p.span(ln, col, ln.hi), text: ln.raw[col:ln.hi]}
}

// parseFlowLine parses a single-line flow collection starting at col and
// consumes the line.
func (p *parser) parseFlowLine(col int) *node {
	ln := p.cur()
	p.i++
	n, end, ok := p.parseFlow(ln, col)
	if !ok {
		return n
	}
	for end < ln.hi && ln.raw[end] == ' ' {
		end++
	}
	if end != ln.hi {
		p.r.Reportf(CodeSyntax, p.span(ln, end, ln.hi), "",
			"trailing characters after flow collection")
	}
	return n
}

// parseFlow parses one flow value ('[...]', '{...}' or a scalar) at
// position j of ln, returning the node and the position after it.
func (p *parser) parseFlow(ln yline, j int) (*node, int, bool) {
	for j < ln.hi && ln.raw[j] == ' ' {
		j++
	}
	if j >= ln.hi {
		p.r.Reportf(CodeSyntax, p.span(ln, ln.hi, ln.hi), "", "missing flow value")
		return &node{kind: kindScalar, span: p.span(ln, ln.hi, ln.hi)}, j, false
	}
	switch ln.raw[j] {
	case '[':
		return p.parseFlowSeq(ln, j)
	case '{':
		return p.parseFlowMap(ln, j)
	case '"', '\'':
		text, end, ok := unquote(ln.raw, j)
		if !ok || end > ln.hi {
			p.r.Reportf(CodeSyntax, p.span(ln, j, ln.hi), "", "unterminated quoted scalar")
			return &node{kind: kindScalar, span: p.span(ln, j, ln.hi), quoted: true}, ln.hi, false
		}
		return &node{kind: kindScalar, span: p.span(ln, j, end), text: text, quoted: true}, end, true
	default:
		a := j
		for j < ln.hi && !strings.ContainsRune(",]}:", rune(ln.raw[j])) {
			j++
		}
		// A ':' inside a flow scalar is only a separator in flow mappings;
		// the caller re-scans for it. Trim trailing blanks.
		b := j
		for b > a && ln.raw[b-1] == ' ' {
			b--
		}
		return &node{kind: kindScalar, span: p.span(ln, a, b), text: ln.raw[a:b]}, j, true
	}
}

func (p *parser) parseFlowSeq(ln yline, j int) (*node, int, bool) {
	n := &node{kind: kindSequence}
	start := j
	j++ // consume '['
	for {
		for j < ln.hi && ln.raw[j] == ' ' {
			j++
		}
		if j >= ln.hi {
			p.r.Reportf(CodeSyntax, p.span(ln, start, ln.hi), "", "unterminated flow sequence")
			n.span = p.span(ln, start, ln.hi)
			return n, ln.hi, false
		}
		if ln.raw[j] == ']' {
			n.span = p.span(ln, start, j+1)
			return n, j + 1, true
		}
		if len(n.items) > 0 {
			if ln.raw[j] != ',' {
				p.r.Reportf(CodeSyntax, p.span(ln, j, j+1), "", "expected ',' or ']' in flow sequence")
				n.span = p.span(ln, start, j)
				return n, j, false
			}
			j++
		}
		item, next, ok := p.parseFlow(ln, j)
		if !ok {
			n.span = p.span(ln, start, next)
			return n, next, false
		}
		n.items = append(n.items, item)
		j = next
	}
}

func (p *parser) parseFlowMap(ln yline, j int) (*node, int, bool) {
	n := &node{kind: kindMapping}
	start := j
	seen := map[string]bool{}
	j++ // consume '{'
	for {
		for j < ln.hi && ln.raw[j] == ' ' {
			j++
		}
		if j >= ln.hi {
			p.r.Reportf(CodeSyntax, p.span(ln, start, ln.hi), "", "unterminated flow mapping")
			n.span = p.span(ln, start, ln.hi)
			return n, ln.hi, false
		}
		if ln.raw[j] == '}' {
			n.span = p.span(ln, start, j+1)
			return n, j + 1, true
		}
		if len(n.keys) > 0 || len(seen) > 0 {
			if ln.raw[j] != ',' {
				p.r.Reportf(CodeSyntax, p.span(ln, j, j+1), "", "expected ',' or '}' in flow mapping")
				n.span = p.span(ln, start, j)
				return n, j, false
			}
			j++
		}
		key, next, ok := p.parseFlow(ln, j)
		if !ok {
			n.span = p.span(ln, start, next)
			return n, next, false
		}
		j = next
		for j < ln.hi && ln.raw[j] == ' ' {
			j++
		}
		if key.kind != kindScalar || j >= ln.hi || ln.raw[j] != ':' {
			p.r.Reportf(CodeSyntax, key.span, "", "expected 'key: value' in flow mapping")
			n.span = p.span(ln, start, j)
			return n, j, false
		}
		j++
		val, next, ok := p.parseFlow(ln, j)
		if !ok {
			n.span = p.span(ln, start, next)
			return n, next, false
		}
		j = next
		if seen[key.text] {
			p.r.Reportf(CodeDupKey, key.span, "", "duplicate key %q (first wins)", key.text)
		} else {
			seen[key.text] = true
			n.keys = append(n.keys, key.text)
			n.keySpans = append(n.keySpans, key.span)
			n.vals = append(n.vals, val)
		}
	}
}

// unquote reads a quoted scalar starting at raw[j] and returns the
// unescaped text and the position just past the closing quote. Double
// quotes support \\, \", \n and \t escapes; single quotes are literal,
// with a doubled single quote standing for one.
func unquote(raw string, j int) (string, int, bool) {
	q := raw[j]
	var b strings.Builder
	for k := j + 1; k < len(raw); k++ {
		c := raw[k]
		switch {
		case q == '"' && c == '\\' && k+1 < len(raw):
			k++
			switch raw[k] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(raw[k])
			}
		case q == '\'' && c == '\'' && k+1 < len(raw) && raw[k+1] == '\'':
			b.WriteByte('\'')
			k++
		case c == q:
			return b.String(), k + 1, true
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), len(raw), false
}
