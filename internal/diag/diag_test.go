package diag

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %v: %v", s, err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != s {
			t.Fatalf("round trip %v -> %s -> %v", s, b, back)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Fatal("unknown severity decoded without error")
	}
}

func TestRegistry(t *testing.T) {
	code := Register(Info{Code: "TF-TEST-001", Severity: Warning, Title: "test rule", Hint: "do the thing"})
	// Codes are append-only for rule packages, but the test's own code
	// must go, or a second run in this process (-count=2, -cpu 1,4) would
	// find it registered already.
	t.Cleanup(func() {
		regMu.Lock()
		delete(registry, code)
		regMu.Unlock()
	})
	info, ok := Lookup(code)
	if !ok || info.Title != "test rule" {
		t.Fatalf("Lookup(%s) = %+v, %v", code, info, ok)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate Register did not panic")
			}
		}()
		Register(Info{Code: "TF-TEST-001"})
	}()
	found := false
	for _, i := range Codes() {
		if i.Code == code {
			found = true
		}
	}
	if !found {
		t.Fatal("Codes() misses registered code")
	}

	// Reporter fills severity and hint from the registry.
	var r Reporter
	r.Reportf(code, Span{}, "tile", "message %d", 7)
	got := r.List()
	if len(got) != 1 || got[0].Severity != Warning || got[0].Hint != "do the thing" || got[0].Message != "message 7" {
		t.Fatalf("reporter filled %+v", got)
	}
}

func TestListSortAndCounts(t *testing.T) {
	l := List{
		{Code: "TF-B-001", Severity: Warning, Span: Span{Start: Pos{Offset: 40, Line: 3, Col: 1}}},
		{Code: "TF-A-001", Severity: Error, Span: Span{Start: Pos{Offset: 10, Line: 1, Col: 11}}},
		{Code: "TF-C-001", Severity: Error}, // unpositioned sorts last
		{Code: "TF-A-002", Severity: Warning, Span: Span{Start: Pos{Offset: 10, Line: 1, Col: 11}}},
	}
	l.Sort()
	wantOrder := []Code{"TF-A-001", "TF-A-002", "TF-B-001", "TF-C-001"}
	for i, c := range wantOrder {
		if l[i].Code != c {
			t.Fatalf("sort order %d = %s, want %s\n%s", i, l[i].Code, c, l)
		}
	}
	if l.Errors() != 2 || l.Warnings() != 2 || !l.HasErrors() || l.ExitCode() != 2 {
		t.Fatalf("counts: errors=%d warnings=%d exit=%d", l.Errors(), l.Warnings(), l.ExitCode())
	}
	if (List{}).ExitCode() != 0 {
		t.Fatal("empty list exit code != 0")
	}
	warnOnly := List{{Code: "TF-W", Severity: Warning}}
	if warnOnly.ExitCode() != 1 {
		t.Fatal("warnings-only exit code != 1")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Code:     "TF-TILE-003",
		Severity: Error,
		Span:     Span{Start: Pos{Offset: 20, Line: 3, Col: 14}, End: Pos{Offset: 25, Line: 3, Col: 19}},
		Node:     "T0_1",
		Message:  `tile "T0_1": dim "i" tiled to 8, want 32`,
		Hint:     "make the path factors multiply to the dim size",
	}
	s := d.String()
	for _, want := range []string{"notation:3:14:", "error[TF-TILE-003]", `dim "i" tiled to 8`, "(make the path"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestDiagnosticJSONShape(t *testing.T) {
	d := Diagnostic{Code: "TF-CAP-001", Severity: Error, Message: "over capacity"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["code"] != "TF-CAP-001" || m["severity"] != "error" || m["message"] != "over capacity" {
		t.Fatalf("JSON shape %s", b)
	}
	if _, has := m["node"]; has {
		t.Fatalf("empty node not omitted: %s", b)
	}
	var back Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Code != d.Code || back.Severity != d.Severity {
		t.Fatalf("round trip %+v", back)
	}
}

func TestListError(t *testing.T) {
	l := List{
		{Code: "TF-W", Severity: Warning, Message: "meh"},
		{Code: "TF-E", Severity: Error, Message: "boom"},
	}
	msg := l.Error()
	if !strings.Contains(msg, "boom") || !strings.Contains(msg, "1 more") {
		t.Fatalf("Error() = %q", msg)
	}
}
