// Command tileflow evaluates one fusion dataflow for one workload on one
// accelerator with TileFlow's tree-based analysis, optionally tuning its
// tiling factors with the MCTS mapper first.
//
// Examples:
//
//	tileflow -arch edge -workload attention:Bert-S -dataflow FLAT-RGran -tune 200
//	tileflow -arch cloud -workload conv:CC1 -dataflow TileFlow -tree
//	tileflow -arch cloud -workload attention:T5 -dataflow Layerwise
//	tileflow vet -arch edge -workload attention:Bert-S -notation-file map.tf
//
// Exit codes mirror the evaluation service's status taxonomy: 0 success,
// 1 internal fault (500), 2 invalid request or mapping (400), 3 infeasible
// design point (422), 4 deadline exceeded (504), 5 canceled (499). The vet
// subcommand instead exits 0 clean, 1 warnings only, 2 any error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/mapper"
	"repro/internal/notation"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/yamlfe"
)

// stopProfile finalizes any active profiler. runMain calls it before
// returning an error exit code so a profile is flushed even on error
// paths.
var stopProfile = func() {}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		os.Exit(runAnalyze(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// flagShape mirrors the explicitly-set design-point flags onto an
// EvaluateRequest shape, so serve.SelectInput enforces the same input
// mutual exclusion on the CLI that the HTTP codec enforces on requests.
// Field values are placeholders; only presence matters here.
func flagShape(fs *flag.FlagSet) *serve.EvaluateRequest {
	req := &serve.EvaluateRequest{}
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "config":
			req.ConfigYAML = "set"
		case "notation-file":
			req.Notation = "set"
		case "dataflow":
			req.Dataflow = "set"
		case "arch":
			req.Arch = "set"
		case "arch-file":
			req.ArchSpec = "set"
		case "workload":
			req.Workload = "set"
		case "tune":
			req.Tune = 1
		}
	})
	return req
}

// runMain is the evaluate entry point behind main, returning the process
// exit code instead of exiting so tests can drive the whole
// flag-to-exit-code path in-process.
func runMain(args []string) int {
	fs := flag.NewFlagSet("tileflow", flag.ExitOnError)
	archName := fs.String("arch", "edge", "accelerator: edge, cloud, validation, a100")
	archFile := fs.String("arch-file", "", "load a custom accelerator spec from a file (see arch.ParseSpec format)")
	workloadName := fs.String("workload", "attention:Bert-S", "workload: attention:<Table2 name>, conv:<Table3 name>")
	dataflowName := fs.String("dataflow", "FLAT-RGran", "dataflow: Layerwise, Uni-pipe, FLAT-{M,B,H,R}Gran, Chimera, TileFlow, Fused-Layer, ISOS")
	tune := fs.Int("tune", 0, "MCTS rounds to tune tiling factors (0 = defaults)")
	seed := fs.Int64("seed", 1, "search seed")
	printTree := fs.Bool("tree", false, "print the analysis tree")
	printNotation := fs.Bool("notation", false, "print the tile-centric notation")
	notationFile := fs.String("notation-file", "", "evaluate a dataflow written in the tile-centric DSL instead of a named template")
	configFile := fs.String("config", "", "evaluate a Timeloop-style YAML config file (architecture + problem + mapping; excludes the other design-point flags)")
	explain := fs.Bool("explain", false, "print a per-tile profile (fills, updates, latency bound)")
	skipCapacity := fs.Bool("skip-capacity", false, "ignore buffer capacity limits")
	jsonOut := fs.Bool("json", false, "print the result as JSON (the evaluation server's codec)")
	profile := fs.String("profile", "", "profile the tune/evaluate path: cpu=<file> writes a pprof CPU profile, mem=<file> a heap profile at exit")
	fs.Parse(args)

	if err := evalMain(fs, evalFlags{
		arch: *archName, archFile: *archFile, workload: *workloadName,
		dataflow: *dataflowName, tune: *tune, seed: *seed,
		tree: *printTree, notation: *printNotation,
		notationFile: *notationFile, config: *configFile,
		explain: *explain, skipCapacity: *skipCapacity,
		jsonOut: *jsonOut, profile: *profile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tileflow:", err)
		stopProfile()
		return exitCodeFor(err)
	}
	return exitOK
}

// evalFlags carries the parsed evaluate-path flags into evalMain.
type evalFlags struct {
	arch, archFile, workload, dataflow string
	notationFile, config, profile      string
	tune                               int
	seed                               int64
	tree, notation, explain            bool
	skipCapacity, jsonOut              bool
}

func evalMain(fs *flag.FlagSet, f evalFlags) error {
	// One input-selection rule across CLI and service: a config file is
	// self-contained, notation excludes templates and tuning. Flags left
	// at their defaults select the template form.
	shape := flagShape(fs)
	if shape.ConfigYAML == "" && shape.Notation == "" && shape.Dataflow == "" {
		shape.Dataflow = "set"
	}
	if _, err := serve.SelectInput(shape); err != nil {
		return usageErr(err)
	}

	if err := startProfile(f.profile); err != nil {
		return err
	}
	defer stopProfile()

	opts := core.Options{SkipCapacityCheck: f.skipCapacity}
	var spec *arch.Spec
	var root *core.Node
	var g *workload.Graph
	var dfName string
	var tunedFactors map[string]int
	var err error
	if f.config == "" {
		if spec, err = pickSpec(f.archFile, f.arch); err != nil {
			return err
		}
	}
	switch {
	case f.config != "":
		src, err := os.ReadFile(f.config)
		if err != nil {
			return usageErr(err)
		}
		cfg, err := yamlfe.LoadStrict(string(src))
		if err != nil {
			return usageErr(err)
		}
		spec, g, root = cfg.Spec, cfg.Graph, cfg.Root
		// The name the server reports for this input form, keeping the
		// -json output byte-comparable to POST /v1/evaluate.
		dfName = "config"
	case f.notationFile != "":
		src, err := os.ReadFile(f.notationFile)
		if err != nil {
			return usageErr(err)
		}
		if g, err = serve.PickGraph(f.workload); err != nil {
			return usageErr(err)
		}
		if root, err = notation.Parse(string(src), g); err != nil {
			return usageErr(err)
		}
		dfName = f.notationFile
	default:
		df, err := serve.PickDataflow(f.dataflow, f.workload, spec)
		if err != nil {
			return usageErr(err)
		}
		g = df.Graph()
		dfName = df.Name()
		factors := df.DefaultFactors()
		if f.tune > 0 {
			ev := mapper.Tune(df, spec, opts, f.tune, f.seed)
			if ev == nil {
				return fmt.Errorf("no valid mapping found for %s", df.Name())
			}
			factors = ev.Factors
			tunedFactors = factors
			if !f.jsonOut {
				fmt.Printf("tuned factors: %v\n", factors)
			}
		}
		if root, err = df.Build(factors); err != nil {
			return err
		}
	}
	if f.tree {
		fmt.Print(root.String())
	}
	if f.notation {
		fmt.Print(notation.Print(root))
	}
	if f.explain {
		reports, err := core.Explain(root, g, spec, opts)
		if err != nil {
			return err
		}
		fmt.Print(core.RenderReports(reports))
	}
	res, err := core.Evaluate(root, g, spec, opts)
	if err != nil {
		return err
	}
	stopProfile()

	if f.jsonOut {
		// The exact EvaluateResponse the server returns for this design
		// point, so CLI and server outputs are byte-comparable. The server
		// names the notation form "notation"; the text header below keeps
		// the file path.
		jsonName := dfName
		if f.notationFile != "" {
			jsonName = "notation"
		}
		resp := &serve.EvaluateResponse{
			Workload:     g.Name,
			Dataflow:     jsonName,
			Arch:         spec.Name,
			TunedFactors: tunedFactors,
			Result:       serve.NewResultJSON(res, spec),
		}
		return json.NewEncoder(os.Stdout).Encode(resp)
	}

	fmt.Printf("workload:       %s\n", g.Name)
	fmt.Printf("dataflow:       %s on %s\n", dfName, spec.Name)
	fmt.Printf("cycles:         %.4g (%.3f ms @ %.2f GHz)\n", res.Cycles, res.Cycles/(spec.FreqGHz*1e9)*1e3, spec.FreqGHz)
	fmt.Printf("compute-bound:  %.4g cycles\n", res.ComputeCycles)
	fmt.Printf("DRAM traffic:   %.4g words\n", res.DRAMTraffic())
	fmt.Printf("on-chip DM:     %.4g words\n", res.OnChipTraffic())
	for i, dm := range res.DM {
		fmt.Printf("  %-5s fill=%.4g read=%.4g update=%.4g\n", spec.Levels[i].Name, dm.Fill, dm.Read, dm.Update)
	}
	fmt.Printf("energy:         %.4g pJ (%s)\n", res.EnergyPJ(), res.Energy.String())
	fmt.Printf("PEs used:       %d / %d, sub-core utilization %.1f%%\n", res.PEsUsed, res.TotalPEs, 100*res.Utilization)
	for i, fp := range res.FootprintWords {
		if i == spec.DRAMLevel() {
			continue
		}
		fmt.Printf("footprint %-5s %d KB / %d KB\n", spec.Levels[i].Name, fp*int64(spec.WordBytes)/1024, spec.Levels[i].CapacityBytes/1024)
	}
	return nil
}

// startProfile parses the -profile flag ("cpu=<file>" or "mem=<file>")
// and starts the requested profiler around the tune/evaluate path. The
// heap profile is written when the run finishes, after a GC, so it shows
// live steady-state allocations rather than transient garbage.
func startProfile(spec string) error {
	if spec == "" {
		return nil
	}
	kind, file, ok := strings.Cut(spec, "=")
	if !ok || file == "" {
		return fmt.Errorf("bad -profile %q: want cpu=<file> or mem=<file>", spec)
	}
	switch kind {
	case "cpu":
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
			stopProfile = func() {}
		}
		return nil
	case "mem":
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		stopProfile = func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "tileflow: write heap profile: %v\n", err)
			}
			f.Close()
			stopProfile = func() {}
		}
		return nil
	default:
		return fmt.Errorf("bad -profile kind %q: want cpu=<file> or mem=<file>", kind)
	}
}

// pickSpec resolves the accelerator from -arch-file or -arch. Failures are
// caller mistakes (exit 2), the CLI analogue of the service's 400.
func pickSpec(archFile, archName string) (*arch.Spec, error) {
	if archFile != "" {
		src, err := os.ReadFile(archFile)
		if err != nil {
			return nil, usageErr(err)
		}
		spec, err := arch.ParseSpec(string(src))
		return spec, usageErr(err)
	}
	spec, err := serve.PickArch(archName)
	return spec, usageErr(err)
}

// usageError marks a caller mistake — bad flags, unknown catalog names,
// unreadable input files — so exitCodeFor maps it to 2 like the service
// maps resolve failures to 400.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usageErr(err error) error {
	if err == nil {
		return nil
	}
	return &usageError{err: err}
}

// Process exit codes, one per service status class.
const (
	exitOK         = 0 // 200
	exitInternal   = 1 // 500
	exitInvalid    = 2 // 400: bad request or structurally invalid mapping
	exitInfeasible = 3 // 422: over capacity, over the PE budget
	exitTimeout    = 4 // 504
	exitCanceled   = 5 // 499
)

// exitCodeFor classifies an error exactly like the service's statusFor, so
// scripts can distinguish "fix your mapping" from "shrink your design
// point" from "the tool broke" without parsing stderr.
func exitCodeFor(err error) int {
	var ue *usageError
	switch {
	case err == nil:
		return exitOK
	case errors.As(err, &ue):
		return exitInvalid
	case errors.Is(err, context.DeadlineExceeded):
		return exitTimeout
	case errors.Is(err, context.Canceled):
		return exitCanceled
	case errors.Is(err, core.ErrInvalidMapping):
		return exitInvalid
	case errors.Is(err, core.ErrInfeasible):
		return exitInfeasible
	}
	return exitInternal
}

// runVet is the static analyzer entry point: it checks a mapping without
// evaluating it and exits 0 clean, 1 warnings only, 2 any error.
// printCodes dumps the diagnostic code registry — the source of truth for
// the table in DESIGN.md. With -json it emits the registry entries as JSON.
func printCodes(asJSON bool) int {
	infos := diag.Codes()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(infos); err != nil {
			fmt.Fprintln(os.Stderr, "tileflow vet:", err)
			return 2
		}
		return 0
	}
	for _, info := range infos {
		sev := "error"
		if info.Severity == diag.Warning {
			sev = "warning"
		}
		fmt.Printf("%-14s %-8s %s", info.Code, sev, info.Title)
		if info.Hint != "" {
			fmt.Printf(" — %s", info.Hint)
		}
		fmt.Println()
	}
	return 0
}

// runAnalyze is the search-space analyzer entry point: it narrows a design
// point's tiling-factor space against the static legality rules without
// sampling it, proving values (or the whole space) infeasible. A dataflow
// selects the named template's factor space; notation and config inputs
// analyze the retiling space of the concrete mapping. It exits 0 when
// nothing was pruned, 1 when values were pruned or the narrowing was
// incomplete, and 2 when the space is provably empty.
func runAnalyze(args []string) int {
	fs := flag.NewFlagSet("tileflow analyze", flag.ExitOnError)
	archName := fs.String("arch", "edge", "accelerator: edge, cloud, validation, a100")
	archFile := fs.String("arch-file", "", "load a custom accelerator spec from a file")
	workloadName := fs.String("workload", "attention:Bert-S", "workload: attention:<Table2 name>, conv:<Table3 name>")
	dataflowName := fs.String("dataflow", "", "analyze a named dataflow template's factor space")
	notationFile := fs.String("notation-file", "", "analyze the retiling space of a mapping written in the tile-centric DSL")
	configFile := fs.String("config", "", "analyze the retiling space of a Timeloop-style YAML config file")
	maxProbes := fs.Int("max-probes", 0, "design-point probe budget (0 = spaceck default); larger spaces are narrowed witness-only")
	skipCapacity := fs.Bool("skip-capacity", false, "ignore buffer capacity limits")
	skipPE := fs.Bool("skip-pe", false, "ignore PE and instance budgets")
	jsonOut := fs.Bool("json", false, "print the space report as JSON (identical to POST /v1/analyze)")
	fs.Parse(args)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "tileflow analyze:", err)
		return 2
	}
	if *configFile != "" && (*notationFile != "" || *dataflowName != "") {
		return fail(fmt.Errorf("-config excludes -notation-file and -dataflow"))
	}
	if *configFile == "" && *notationFile == "" && *dataflowName == "" {
		return fail(fmt.Errorf("one of -config, -notation-file or -dataflow is required"))
	}
	// Build the exact request POST /v1/analyze would receive and run it
	// through the same function, so -json output is byte-identical to the
	// service's response body.
	req, err := designRequest(*configFile, *notationFile, *dataflowName, *workloadName, *archFile, *archName)
	if err != nil {
		return fail(err)
	}
	req.SkipCapacityCheck, req.SkipPECheck, req.MaxProbes = *skipCapacity, *skipPE, *maxProbes
	report, err := serve.AnalyzeSpace(req)
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			return fail(err)
		}
		return report.ExitCode()
	}

	fmt.Printf("dataflow:  %s\n", report.Dataflow)
	fmt.Printf("space:     %d points, %d kept", report.SpaceSize, report.KeptSize)
	if !report.Complete {
		fmt.Printf(" (incomplete: witness-only, %d probes)", report.Probes)
	}
	fmt.Println()
	for _, d := range report.Factors {
		fmt.Printf("  %-24s kept %v", d.Key, d.Kept)
		if len(d.Removed) > 0 {
			fmt.Printf("  removed:")
			for _, rm := range d.Removed {
				fmt.Printf(" %d(%s)", rm.Value, rm.Rule)
			}
		}
		fmt.Println()
	}
	fmt.Print(report.Diagnostics.String())
	if report.Empty {
		fmt.Println("analyze: search space provably empty")
	} else {
		pruned := 0
		for _, d := range report.Factors {
			pruned += len(d.Removed)
		}
		fmt.Printf("analyze: %d factor value(s) pruned across %d factor(s), %d probes\n",
			pruned, len(report.Factors), report.Probes)
	}
	return report.ExitCode()
}

func runVet(args []string) int {
	fs := flag.NewFlagSet("tileflow vet", flag.ExitOnError)
	archName := fs.String("arch", "edge", "accelerator: edge, cloud, validation, a100")
	archFile := fs.String("arch-file", "", "load a custom accelerator spec from a file")
	workloadName := fs.String("workload", "attention:Bert-S", "workload: attention:<Table2 name>, conv:<Table3 name>")
	dataflowName := fs.String("dataflow", "", "vet a named dataflow template, built with its default factors")
	notationFile := fs.String("notation-file", "", "vet a mapping written in the tile-centric DSL")
	configFile := fs.String("config", "", "vet a Timeloop-style YAML config file (architecture + problem + mapping)")
	skipCapacity := fs.Bool("skip-capacity", false, "ignore buffer capacity limits")
	skipPE := fs.Bool("skip-pe", false, "ignore PE and instance budgets")
	jsonOut := fs.Bool("json", false, "print the vet report as JSON (identical to POST /v1/vet)")
	codes := fs.Bool("codes", false, "print the diagnostic code registry and exit")
	fs.Parse(args)

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "tileflow vet:", err)
		return 2
	}
	if *codes {
		return printCodes(*jsonOut)
	}
	// The same input-selection rule the evaluate path and the service
	// enforce: a config is self-contained and excludes the other forms.
	shape := flagShape(fs)
	if shape.ConfigYAML == "" && shape.Notation == "" && shape.Dataflow == "" {
		return fail(fmt.Errorf("one of -config, -notation-file or -dataflow is required"))
	}
	if _, err := serve.SelectInput(shape); err != nil {
		return fail(err)
	}
	// Build the exact request POST /v1/vet would receive and run it
	// through the same function, so -json output is byte-identical to the
	// service's response body.
	req, err := designRequest(*configFile, *notationFile, *dataflowName, *workloadName, *archFile, *archName)
	if err != nil {
		return fail(err)
	}
	req.SkipCapacityCheck, req.SkipPECheck = *skipCapacity, *skipPE
	report, err := serve.Vet(req)
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			return fail(err)
		}
	} else {
		fmt.Print(report.Diagnostics.String())
		fmt.Printf("vet: %d error(s), %d warning(s)\n", report.Errors, report.Warnings)
	}
	return report.ExitCode()
}

// designRequest builds the EvaluateRequest the HTTP API receives for the
// analyzer subcommands' design-point flags, reading the named files. A
// config is self-contained; a notation file wins over a dataflow name, and
// an arch file over an arch name. Callers check the error first.
func designRequest(configFile, notationFile, dataflow, wl, archFile, archName string) (*serve.EvaluateRequest, error) {
	var req serve.EvaluateRequest
	var err error
	switch {
	case configFile != "":
		req.ConfigYAML, err = readInput(configFile)
		return &req, err
	case notationFile != "":
		req.Notation, err = readInput(notationFile)
	default:
		req.Dataflow = dataflow
	}
	req.Workload, req.Arch = wl, archName
	if err == nil && archFile != "" {
		req.Arch = ""
		req.ArchSpec, err = readInput(archFile)
	}
	return &req, err
}

// readInput reads a design-point file. An empty one is refused: the
// request would read as one that names no input at all.
func readInput(path string) (string, error) {
	src, err := os.ReadFile(path)
	if err == nil && len(src) == 0 {
		err = fmt.Errorf("%s is empty", path)
	}
	return string(src), err
}
