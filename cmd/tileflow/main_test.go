package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

const mainMatmulSrc = `leaf mm = op mm { Sp(m:2), m:4, n:8, k:8 }
tile root @L2 = { m:1 } (mm)
`

// writeConfig renders a small matmul design point on Edge to a YAML
// config file and returns its path plus the point it encodes.
func writeConfig(t *testing.T) (string, *arch.Spec, *workload.Graph, *core.Node) {
	t.Helper()
	spec := arch.Edge()
	g := workload.Matmul(8, 8, 8)
	root, err := notation.Parse(mainMatmulSrc, g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case.yaml")
	if err := os.WriteFile(path, []byte(yamlfe.Render(spec, g, root)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, spec, g, root
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestRunMainConfig: `tileflow -config case.yaml -json` evaluates the
// config and prints the same EvaluateResponse the server would, with the
// result matching a direct core.Evaluate of the encoded point.
func TestRunMainConfig(t *testing.T) {
	path, spec, g, root := writeConfig(t)
	var code int
	out := captureStdout(t, func() { code = runMain([]string{"-config", path, "-json"}) })
	if code != exitOK {
		t.Fatalf("exit %d, want %d", code, exitOK)
	}
	var resp serve.EvaluateResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad -json output %q: %v", out, err)
	}
	if resp.Dataflow != "config" || resp.Result == nil {
		t.Fatalf("response = %+v", resp)
	}
	res, err := core.Evaluate(root, g, spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(serve.NewResultJSON(res, spec))
	got, _ := json.Marshal(resp.Result)
	if string(got) != string(want) {
		t.Errorf("config result differs from direct evaluation:\n got %s\nwant %s", got, want)
	}
}

// TestRunMainExclusion pins the CLI side of the unified input-selection
// check: mixing -config with the other design-point flags is exit 2, and
// the check fires before any file is read.
func TestRunMainExclusion(t *testing.T) {
	cases := [][]string{
		{"-config", "nonexistent.yaml", "-dataflow", "Layerwise"},
		{"-config", "nonexistent.yaml", "-notation-file", "x.tf"},
		{"-config", "nonexistent.yaml", "-arch", "edge"},
		{"-config", "nonexistent.yaml", "-workload", "attention:Bert-S"},
		{"-config", "nonexistent.yaml", "-tune", "5"},
		{"-notation-file", "x.tf", "-dataflow", "Layerwise"},
		{"-notation-file", "x.tf", "-tune", "5"},
	}
	for _, args := range cases {
		if code := runMain(args); code != exitInvalid {
			t.Errorf("runMain(%v) = %d, want %d", args, code, exitInvalid)
		}
	}
}

// TestRunMainConfigInvalid: a config that fails to load is a caller
// mistake, exit 2, never a crash.
func TestRunMainConfigInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(path, []byte("just a scalar"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runMain([]string{"-config", path}); code != exitInvalid {
		t.Errorf("exit %d, want %d", code, exitInvalid)
	}
	if code := runMain([]string{"-config", filepath.Join(t.TempDir(), "missing.yaml")}); code != exitInvalid {
		t.Errorf("missing file: exit %d, want %d", code, exitInvalid)
	}
}

// TestRunVetConfig covers `tileflow vet -config`: 0 for a clean config, 2
// when the config has errors (the diagnostics are the report), and 2 for
// flag mixes rejected by the shared input-selection check.
func TestRunVetConfig(t *testing.T) {
	path, _, _, _ := writeConfig(t)
	var code int
	out := captureStdout(t, func() { code = runVet([]string{"-config", path, "-json"}) })
	// The toy mapping draws analyzer warnings (underused PEs) but no
	// errors: valid, exit 1.
	if code != 1 {
		t.Errorf("clean config: exit %d, want 1 (warnings only)", code)
	}
	var clean struct {
		Valid  bool `json:"valid"`
		Errors int  `json:"errors"`
	}
	if err := json.Unmarshal([]byte(out), &clean); err != nil {
		t.Fatalf("vet -json output %q: %v", out, err)
	}
	if !clean.Valid || clean.Errors != 0 {
		t.Errorf("clean config vets %+v", clean)
	}

	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("just a scalar"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { code = runVet([]string{"-config", bad, "-json"}) })
	if code != 2 {
		t.Errorf("broken config: exit %d, want 2", code)
	}
	var rep struct {
		Valid       bool `json:"valid"`
		Diagnostics []struct {
			Code string `json:"code"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("vet -json output %q: %v", out, err)
	}
	if rep.Valid || len(rep.Diagnostics) == 0 {
		t.Errorf("broken config vets %+v", rep)
	}

	if code := runVet([]string{"-config", path, "-arch", "edge"}); code != 2 {
		t.Errorf("config+arch: exit %d, want 2", code)
	}
	if code := runVet([]string{"-config", path, "-dataflow", "Layerwise"}); code != 2 {
		t.Errorf("config+dataflow: exit %d, want 2", code)
	}
	if code := runVet(nil); code != 2 {
		t.Errorf("no input: exit %d, want 2", code)
	}
	empty := filepath.Join(t.TempDir(), "empty.tf")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runVet([]string{"-notation-file", empty}); code != 2 {
		t.Errorf("empty notation file: exit %d, want 2", code)
	}
}

// TestCLIJSONMatchesHTTP: `tileflow -json`, `tileflow vet -json` and
// `tileflow analyze -json` print the exact body the matching HTTP endpoint
// answers for the same design point, for the notation-file, dataflow and
// config forms.
func TestCLIJSONMatchesHTTP(t *testing.T) {
	s := serve.New(serve.Config{})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close(context.Background())
	})
	cfgPath, _, _, _ := writeConfig(t)
	cfgSrc, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	tfPath := filepath.Join(t.TempDir(), "mm.tf")
	if err := os.WriteFile(tfPath, []byte(mainMatmulSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	forms := []struct {
		name string
		args []string
		req  serve.EvaluateRequest
	}{
		{"notation-file", []string{"-arch", "edge", "-workload", "matmul:8x8x8", "-notation-file", tfPath},
			serve.EvaluateRequest{Arch: "edge", Workload: "matmul:8x8x8", Notation: mainMatmulSrc}},
		{"dataflow", []string{"-arch", "cloud", "-workload", "attention:Bert-S", "-dataflow", "FLAT-RGran"},
			serve.EvaluateRequest{Arch: "cloud", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"}},
		{"config", []string{"-config", cfgPath},
			serve.EvaluateRequest{ConfigYAML: string(cfgSrc)}},
	}
	commands := []struct {
		name, path string
		run        func([]string) int
	}{
		{"evaluate", "/v1/evaluate", runMain},
		{"vet", "/v1/vet", runVet},
		{"analyze", "/v1/analyze", runAnalyze},
	}
	for _, cmd := range commands {
		for _, form := range forms {
			t.Run(cmd.name+"/"+form.name, func(t *testing.T) {
				out := captureStdout(t, func() { cmd.run(append(form.args, "-json")) })
				req := form.req
				req.NoCache = true
				body, err := json.Marshal(&req)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(hs.URL+cmd.path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				want, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s answered %d: %s", cmd.path, resp.StatusCode, want)
				}
				if out != string(want) {
					t.Errorf("CLI -json differs from %s:\ncli  %s\nhttp %s", cmd.path, out, want)
				}
			})
		}
	}
}
