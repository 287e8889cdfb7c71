package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/notation"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// resolutionGoldenPath pins how every endpoint that names a design point
// answers each request shape: one line per (shape, endpoint) with the
// status and the error body, or a digest of a success body. Regenerate with
// TILEFLOW_UPDATE_GOLDEN=1 only for a change that is meant to alter a
// request's answer.
const resolutionGoldenPath = "testdata/request_resolution.golden"

// resolutionEndpoints are the routes that turn a request into an
// architecture, a workload graph and a mapping (or a search over them).
var resolutionEndpoints = []string{"/v1/evaluate", "/v1/vet", "/v1/analyze", "/v1/search", "/v1/jobs/search"}

type resolutionShape struct {
	name string
	body map[string]any
}

// resolutionShapes enumerates every input form (config, notation,
// dataflow, none) with the architecture missing, unknown or inline, the
// workload missing, unknown, or given as workload_spec with or without
// workload, and with tune and factors. Every body carries a tiny search
// budget and no_cache, so search answers are fresh and cheap; the
// evaluate-shaped endpoints ignore the search fields.
func resolutionShapes(t *testing.T) []resolutionShape {
	t.Helper()
	mm := workload.Matmul(8, 8, 8)
	root, err := notation.Parse(vetMatmulSrc, mm)
	if err != nil {
		t.Fatal(err)
	}
	edgeSpec := arch.FormatSpec(arch.Edge())
	mmSpec := workload.CanonicalGraph(mm)
	config := yamlfe.Render(arch.Edge(), mm, root)

	var shapes []resolutionShape
	add := func(name string, kv ...any) {
		body := map[string]any{"population": 2, "generations": 1, "tile_rounds": 2, "seed": 1, "no_cache": true}
		for i := 0; i < len(kv); i += 2 {
			if kv[i+1] == nil {
				delete(body, kv[i].(string))
				continue
			}
			body[kv[i].(string)] = kv[i+1]
		}
		shapes = append(shapes, resolutionShape{name, body})
	}

	// Notation form over an 8x8x8 matmul.
	nt := func(name string, kv ...any) {
		add("notation "+name, append([]any{"arch", "edge", "workload", "matmul:8x8x8", "notation", vetMatmulSrc}, kv...)...)
	}
	nt("ok")
	nt("arch missing", "arch", nil)
	nt("arch unknown", "arch", "tpu")
	nt("arch inline", "arch", nil, "arch_spec", edgeSpec)
	nt("arch inline malformed", "arch", nil, "arch_spec", "levels: nope")
	nt("arch and arch inline", "arch_spec", edgeSpec)
	nt("workload missing", "workload", nil)
	nt("workload unknown", "workload", "attention:Nope")
	nt("workload bad kind", "workload", "nope")
	nt("workload_spec only", "workload", nil, "workload_spec", mmSpec)
	nt("workload_spec with workload", "workload_spec", mmSpec)
	nt("workload_spec malformed", "workload", nil, "workload_spec", "op broken")
	nt("parse error", "notation", "nonsense statement\n")
	nt("undertiled", "notation", strings.Replace(vetMatmulSrc, "k:8", "k:4", 1))
	nt("tune", "tune", 2)
	nt("factors", "factors", map[string]int{"t": 2})
	nt("with dataflow", "dataflow", "Layerwise")

	// Dataflow form: a Table 5 template over a Table 2 shape.
	df := func(name string, kv ...any) {
		add("dataflow "+name, append([]any{"arch", "edge", "workload", "attention:Bert-S", "dataflow", "Layerwise"}, kv...)...)
	}
	df("ok")
	df("arch missing", "arch", nil)
	df("arch unknown", "arch", "tpu")
	df("arch inline", "arch", nil, "arch_spec", edgeSpec)
	df("arch inline malformed", "arch", nil, "arch_spec", "levels: nope")
	// The first request the endpoints used to disagree on.
	df("workload missing", "workload", nil)
	df("workload unknown", "workload", "attention:Nope")
	df("workload bad kind", "workload", "nope")
	df("workload matmul", "workload", "matmul:8x8x8")
	df("workload_spec only", "workload", nil, "workload_spec", mmSpec)
	// The second request the endpoints used to disagree on.
	df("workload_spec with workload", "workload_spec", mmSpec)
	df("unknown template", "dataflow", "Nope")
	df("tune", "tune", 2)
	df("tune arch missing", "tune", 2, "arch", nil)
	df("tune workload missing", "tune", 2, "workload", nil)
	df("factors", "factors", map[string]int{"t": 4, "sp_c": 2})
	df("factors invalid", "factors", map[string]int{"t": 3, "sp_c": 2})
	df("tune and factors", "tune", 2, "factors", map[string]int{"t": 4})

	// Config form: self-contained, so every other design-point field is a
	// mistake.
	cf := func(name string, kv ...any) {
		add("config "+name, append([]any{"config_yaml", config}, kv...)...)
	}
	cf("ok")
	cf("malformed", "config_yaml", "just a scalar")
	cf("with arch", "arch", "edge")
	cf("with arch inline", "arch_spec", edgeSpec)
	cf("with workload", "workload", "matmul:8x8x8")
	cf("with workload_spec", "workload_spec", mmSpec)
	cf("with notation", "notation", vetMatmulSrc)
	cf("with dataflow", "dataflow", "Layerwise")
	cf("tune", "tune", 2)
	cf("factors", "factors", map[string]int{"t": 2})

	// No mapping form: valid for the searches only.
	add("none arch and workload", "arch", "edge", "workload", "attention:Bert-S")
	add("none arch inline", "arch_spec", edgeSpec, "workload", "attention:Bert-S")
	add("none arch missing", "workload", "attention:Bert-S")
	add("none arch unknown", "arch", "tpu", "workload", "attention:Bert-S")
	add("none workload missing", "arch", "edge")
	add("none workload unknown", "arch", "edge", "workload", "attention:Nope")
	add("none workload_spec only", "arch", "edge", "workload_spec", mmSpec)
	add("none empty")
	return shapes
}

// resolutionLine renders one answer: the status and the error body, a
// digest of a success body, or just the status for an accepted job (its
// body carries a fresh id and timestamps).
func resolutionLine(shape, endpoint string, status int, body []byte) string {
	text := strings.TrimSuffix(string(body), "\n")
	switch {
	case status == http.StatusAccepted:
		text = "job accepted"
	case status == http.StatusOK:
		sum := sha256.Sum256(body)
		text = "sha256:" + hex.EncodeToString(sum[:8])
	}
	return fmt.Sprintf("%s | %s | %d | %s\n", shape, endpoint, status, text)
}

// TestRequestResolutionGolden: every endpoint's answer to every request
// shape stays byte-identical to the committed golden.
func TestRequestResolutionGolden(t *testing.T) {
	// A coordinator-only node: accepted jobs stay queued, so the submit
	// route answers without running a search.
	_, hs := newTestServer(t, Config{JobWorkers: -1})
	var b strings.Builder
	for _, sh := range resolutionShapes(t) {
		for _, ep := range resolutionEndpoints {
			resp, body := postJSON(t, hs.URL+ep, sh.body)
			b.WriteString(resolutionLine(sh.name, ep, resp.StatusCode, body))
		}
	}
	got := b.String()
	if os.Getenv("TILEFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(resolutionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resolutionGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(resolutionGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with TILEFLOW_UPDATE_GOLDEN=1)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs from %s:\ngot  %s\nwant %s", i+1, resolutionGoldenPath, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("resolution dump has %d lines, %s has %d", len(gl), resolutionGoldenPath, len(wl))
	}
}
