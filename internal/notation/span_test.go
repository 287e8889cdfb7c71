package notation

import (
	"strings"
	"testing"

	"repro/internal/diag"
)

// textAt extracts the source text a span covers.
func textAt(src string, s diag.Span) string {
	if s.IsZero() || s.End.Offset > len(src) {
		return ""
	}
	return src[s.Start.Offset:s.End.Offset]
}

func TestParseSourcePositions(t *testing.T) {
	g := sec42Graph()
	root, sm, diags := ParseSource(sec42Source, g)
	if diags.HasErrors() {
		t.Fatalf("unexpected errors:\n%s", diags)
	}
	if root == nil {
		t.Fatal("nil root without errors")
	}
	// Every node of the tree has a source map entry whose spans cover the
	// exact tokens.
	for _, name := range []string{"T0_0", "T1_0", "T2_0", "T0_1", "T1_1", "T0_2"} {
		ns, ok := sm.Node(name)
		if !ok {
			t.Fatalf("no spans for %s", name)
		}
		if got := textAt(sec42Source, ns.Name); got != name {
			t.Errorf("%s name span covers %q", name, got)
		}
		if !strings.HasPrefix(textAt(sec42Source, ns.Stmt), "leaf ") &&
			!strings.HasPrefix(textAt(sec42Source, ns.Stmt), "tile ") {
			t.Errorf("%s stmt span covers %q", name, textAt(sec42Source, ns.Stmt))
		}
	}
	// Specific tokens.
	if got := textAt(sec42Source, sm.Level("T0_1")); got != "@L1" {
		t.Errorf("T0_1 level span covers %q, want %q", got, "@L1")
	}
	if got := textAt(sec42Source, sm.Loop("T0_0", 0)); got != "Sp(i:4)" {
		t.Errorf("T0_0 loop 0 span covers %q, want %q", got, "Sp(i:4)")
	}
	if got := textAt(sec42Source, sm.Loop("T0_2", 0)); got != "i:4" {
		t.Errorf("T0_2 loop 0 span covers %q, want %q", got, "i:4")
	}
	ns, _ := sm.Node("T0_0")
	if got := textAt(sec42Source, ns.Op); got != "A" {
		t.Errorf("T0_0 op span covers %q, want %q", got, "A")
	}
	ns, _ = sm.Node("T0_2")
	if len(ns.Children) != 2 || textAt(sec42Source, ns.Children[1]) != "T1_1" {
		t.Errorf("T0_2 child spans = %v", ns.Children)
	}
	binds := sm.Binds()
	if len(binds) != 2 || textAt(sec42Source, binds[0].Prim) != "Pipe" {
		t.Fatalf("bind spans = %+v", binds)
	}
	if textAt(sec42Source, binds[1].Tiles[0]) != "T0_1" {
		t.Errorf("bind 1 tile 0 span covers %q", textAt(sec42Source, binds[1].Tiles[0]))
	}
}

func TestParseSourceDiagnostics(t *testing.T) {
	g := sec42Graph()
	cases := []struct {
		name string
		src  string
		code diag.Code
		want string // text the span must cover ("" = unpositioned)
	}{
		{"unknown op", "leaf t = op Zzz { i:2 }", CodeUnknownOp, "Zzz"},
		{"bad loop", "leaf t = op A { i=2 }", CodeLoop, "i=2"},
		{"bad extent", "leaf t = op A { i:0 }", CodeLoop, "0"},
		{"unknown child", "tile r @L1 = { i:2 } (nope)", CodeUnknownChild, "nope"},
		{"bad level", "tile r @Lx = { i:2 } (t)", CodeTile, "@Lx"},
		{"two roots", "leaf t1 = op A { i:32, l:64, k:32 }\nleaf t2 = op B { i:32, l:64 }", CodeRootCount, ""},
		{"bad binding", sec42Source + "bind Zip(T0_0, T1_0)", CodeBindPrim, "Zip"},
		{"bind across parents", sec42Source + "bind Para(T0_0, T2_0)", CodeBindSplit, "bind Para(T0_0, T2_0)"},
		{"duplicate", "leaf t = op A { i:2 }\nleaf t = op B { i:2 }", CodeDupTile, "t"},
		{"bad stmt", "loop t = op A { i:2 }", CodeStmt, "loop t = op A { i:2 }"},
		{"child reused", "leaf t = op A { i:2 }\ntile a @L1 = { } (t)\ntile b @L1 = { } (t)", CodeChildReused, "t"},
	}
	for _, c := range cases {
		root, _, diags := ParseSource(c.src, g)
		if !diags.HasErrors() {
			t.Errorf("%s: no errors", c.name)
			continue
		}
		if root != nil {
			t.Errorf("%s: non-nil root despite errors", c.name)
		}
		found := false
		for _, d := range diags {
			if d.Code != c.code {
				continue
			}
			found = true
			if c.want == "" {
				if !d.Span.IsZero() {
					t.Errorf("%s: want unpositioned %s, got span %v", c.name, c.code, d.Span)
				}
			} else if got := textAt(c.src, d.Span); got != c.want {
				t.Errorf("%s: %s span covers %q, want %q", c.name, c.code, got, c.want)
			}
			if d.Severity != diag.Error {
				t.Errorf("%s: %s severity = %v", c.name, c.code, d.Severity)
			}
		}
		if !found {
			t.Errorf("%s: no %s diagnostic in:\n%s", c.name, c.code, diags)
		}
	}
}

// TestParseSourceCollects: a source with several independent mistakes
// yields one diagnostic per mistake, not just the first.
func TestParseSourceCollects(t *testing.T) {
	g := sec42Graph()
	src := strings.Join([]string{
		"leaf a = op Zzz { i:2 }",           // unknown op
		"leaf b = op A { i:0 }",             // bad extent
		"leaf c = op B { banana }",          // bad loop
		"tile r @L1 = { } (a, b, c, ghost)", // unknown child
	}, "\n")
	_, _, diags := ParseSource(src, g)
	wantCodes := map[diag.Code]bool{CodeUnknownOp: true, CodeLoop: true, CodeUnknownChild: true}
	got := map[diag.Code]int{}
	for _, d := range diags {
		got[d.Code]++
	}
	for code := range wantCodes {
		if got[code] == 0 {
			t.Errorf("missing %s in:\n%s", code, diags)
		}
	}
	if got[CodeLoop] != 2 {
		t.Errorf("want 2 TF-PARSE-004 (bad extent + bad loop), got %d:\n%s", got[CodeLoop], diags)
	}
	// Diagnostics come out position-sorted.
	last := -1
	for _, d := range diags {
		if d.Span.IsZero() {
			continue
		}
		if d.Span.Start.Offset < last {
			t.Fatalf("diagnostics not sorted by position:\n%s", diags)
		}
		last = d.Span.Start.Offset
	}
}

func TestNilSourceMap(t *testing.T) {
	var m *SourceMap
	if !m.Span("x").IsZero() || !m.Level("x").IsZero() || !m.Loop("x", 0).IsZero() {
		t.Error("nil SourceMap must yield zero spans")
	}
	if m.Binds() != nil {
		t.Error("nil SourceMap must yield no binds")
	}
	if _, ok := m.Node("x"); ok {
		t.Error("nil SourceMap reports nodes")
	}
}
