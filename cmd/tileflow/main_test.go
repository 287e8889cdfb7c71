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
	"strings"
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
	return capture(t, &os.Stdout, fn)
}

// capture runs fn with *f redirected to a pipe and returns what fn wrote
// to it.
func capture(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	old := *f
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*f = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { *f = old }()
	fn()
	w.Close()
	*f = old
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

// TestRunAnalyzeExclusion: `tileflow analyze` applies the input-selection
// rule vet and evaluate apply, so a config mixed with another design-point
// flag is exit 2 rather than a silently ignored flag.
func TestRunAnalyzeExclusion(t *testing.T) {
	path, _, _, _ := writeConfig(t)
	for _, args := range [][]string{
		{"-config", path, "-arch", "cloud"},
		{"-config", path, "-workload", "attention:Bert-S"},
		{"-config", path, "-dataflow", "Layerwise"},
		{"-notation-file", "x.tf", "-dataflow", "Layerwise"},
		nil,
	} {
		if code := runAnalyze(args); code != 2 {
			t.Errorf("runAnalyze(%v) = %d, want 2", args, code)
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
				cliMatchesHTTP(t, hs.URL, cmd.path, cmd.run, form.args, form.req)
			})
		}
	}
	// The tuned form runs for evaluate only: vet and analyze read one
	// concrete mapping or a factor space, not a tuning budget.
	t.Run("evaluate/tuned", func(t *testing.T) {
		cliMatchesHTTP(t, hs.URL, "/v1/evaluate", runMain,
			[]string{"-arch", "edge", "-workload", "attention:Bert-S", "-dataflow", "FLAT-RGran", "-tune", "6", "-seed", "3"},
			serve.EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "FLAT-RGran", Tune: 6, Seed: 3})
	})
}

// cliMatchesHTTP runs a CLI command with -json and fails unless it prints
// the exact 200 body the endpoint at url+path answers for req.
func cliMatchesHTTP(t *testing.T, url, path string, run func([]string) int, args []string, req serve.EvaluateRequest) {
	t.Helper()
	out := captureStdout(t, func() { run(append(args, "-json")) })
	req.NoCache = true
	status, want := postJSON(t, url+path, &req)
	if status != http.StatusOK {
		t.Fatalf("%s answered %d: %s", path, status, want)
	}
	if out != string(want) {
		t.Errorf("CLI -json differs from %s:\ncli  %s\nhttp %s", path, out, want)
	}
}

// postJSON posts req as JSON and returns the answer's status and body.
func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestCLIExitCodesMatchHTTP: a failing `tileflow` evaluation exits with
// the code the status table gives for the status /v1/evaluate answers the
// same request with, and prints the service's message. A CLI-local
// mistake the service never sees, such as an unreadable -arch-file, exits 2
// without consulting the status table.
func TestCLIExitCodesMatchHTTP(t *testing.T) {
	s := serve.New(serve.Config{})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close(context.Background())
	})
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Edge with 2-byte on-chip buffers: no attention tile fits.
	tiny := arch.Edge()
	for i := range tiny.Levels {
		if i != tiny.DRAMLevel() {
			tiny.Levels[i].CapacityBytes = 2
		}
	}
	tinySrc := arch.FormatSpec(tiny)
	tinyPath := write("tiny.arch", tinySrc)
	badTF := "leaf mm = op mm { m:4 \n"
	badPath := write("bad.tf", badTF)
	bert := []string{"-workload", "attention:Bert-S"}

	cases := []struct {
		name   string
		args   []string
		req    serve.EvaluateRequest
		status int
	}{
		{"unknown-template", append([]string{"-arch", "edge", "-dataflow", "Nope"}, bert...),
			serve.EvaluateRequest{Arch: "edge", Workload: "attention:Bert-S", Dataflow: "Nope"}, http.StatusBadRequest},
		{"bad-notation", []string{"-arch", "edge", "-workload", "matmul:8x8x8", "-notation-file", badPath},
			serve.EvaluateRequest{Arch: "edge", Workload: "matmul:8x8x8", Notation: badTF}, http.StatusBadRequest},
		{"over-capacity", append([]string{"-arch-file", tinyPath, "-dataflow", "FLAT-RGran"}, bert...),
			serve.EvaluateRequest{ArchSpec: tinySrc, Workload: "attention:Bert-S", Dataflow: "FLAT-RGran"}, http.StatusUnprocessableEntity},
		{"tune-infeasible", append([]string{"-arch-file", tinyPath, "-dataflow", "FLAT-RGran", "-tune", "4"}, bert...),
			serve.EvaluateRequest{ArchSpec: tinySrc, Workload: "attention:Bert-S", Dataflow: "FLAT-RGran", Tune: 4, Seed: 1}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			req.NoCache = true
			status, body := postJSON(t, hs.URL+"/v1/evaluate", &req)
			if status != tc.status {
				t.Fatalf("/v1/evaluate answered %d, want %d: %s", status, tc.status, body)
			}
			want, ok := statusExit[status]
			if !ok {
				want = exitInternal
			}
			var code int
			stderr := capture(t, &os.Stderr, func() { code = runMain(tc.args) })
			if code != want {
				t.Errorf("exit %d, want %d for status %d (stderr %q)", code, want, status, stderr)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatal(err)
			}
			if stderr != "tileflow: "+eb.Error+"\n" {
				t.Errorf("stderr %q, want the service's message %q", stderr, eb.Error)
			}
		})
	}
	t.Run("unreadable-arch-file", func(t *testing.T) {
		args := append([]string{"-arch-file", filepath.Join(dir, "missing.arch"), "-dataflow", "FLAT-RGran"}, bert...)
		var code int
		stderr := capture(t, &os.Stderr, func() { code = runMain(args) })
		if code != exitInvalid || !strings.Contains(stderr, "missing.arch") {
			t.Errorf("exit %d, stderr %q; want exit 2 naming the file", code, stderr)
		}
	})
}
