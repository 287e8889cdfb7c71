// Command tileflow-search explores the full 3D fusion-dataflow design space
// (compute ordering × resource binding × loop tiling) for a workload with
// the Sec 6 mapper: a genetic algorithm over ordering/binding encodings
// with MCTS tiling-factor search per candidate.
//
// Long runs survive interruption: -checkpoint writes the search state to a
// file at every generation boundary (atomically), and -resume continues
// from such a file with a trajectory identical to an uninterrupted run.
// The checkpoint format is shared with the evaluation server's async job
// subsystem.
//
// With -server, the search is submitted to a tileflow-serve instance as
// an async job instead of running locally: -tenant and -class feed the
// server's multi-tenant scheduler, -warm-start seeds the GA from the best
// finished search of the same structure, and a tenant-quota refusal
// relays the server's 429 body byte-for-byte and exits with code 3.
//
// Example:
//
//	tileflow-search -arch edge -workload attention:Bert-S -pop 20 -gens 20
//	tileflow-search -workload attention:Bert-S -checkpoint search.ckpt
//	tileflow-search -workload attention:Bert-S -resume search.ckpt -json
//	tileflow-search -server http://host:8080 -tenant alice -class interactive -workload attention:Bert-S
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/notation"
	"repro/internal/serve"
)

func main() {
	archName := flag.String("arch", "edge", "accelerator: edge, cloud, validation, a100")
	archFile := flag.String("arch-file", "", "load a custom accelerator spec from a file (see arch.ParseSpec format)")
	workloadName := flag.String("workload", "attention:Bert-S", "workload: attention:<name> or conv:<name>")
	pop := flag.Int("pop", 20, "GA population size")
	gens := flag.Int("gens", 20, "GA generations")
	tileRounds := flag.Int("tile-rounds", 60, "MCTS rounds per candidate")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "parallel evaluations (0 = NumCPU)")
	printTree := flag.Bool("tree", false, "print the winning analysis tree")
	checkpointFile := flag.String("checkpoint", "", "write a resumable checkpoint to this file at every generation")
	resumeFile := flag.String("resume", "", "resume from a checkpoint file written by -checkpoint (or the server)")
	jsonOut := flag.Bool("json", false, "print the result as JSON (same shape as the server's /v1/search)")
	server := flag.String("server", "", "submit the search as an async job to a tileflow-serve instance at this base URL instead of running locally")
	tenant := flag.String("tenant", "", "tenant the job is billed to (server mode)")
	class := flag.String("class", "", "priority class: interactive, batch, or bulk (server mode; default batch)")
	warmStart := flag.Bool("warm-start", false, "seed the GA from the best checkpoint of a structurally identical finished search (server mode)")
	maxAttempts := flag.Int("max-attempts", 0, "failovers before the job is quarantined as poisoned (server mode; 0 = server default)")
	flag.Parse()

	o := &remoteOpts{
		server: *server, archName: *archName, archFile: *archFile,
		workload: *workloadName, pop: *pop, gens: *gens,
		tileRounds: *tileRounds, seed: *seed,
		tenant: *tenant, class: *class, warmStart: *warmStart,
		maxAttempts: *maxAttempts, jsonOut: *jsonOut,
	}
	if *server != "" {
		code, err := runRemote(o, os.Stdout)
		fatalIf(err)
		os.Exit(code)
	}

	// Local mode resolves the design point the way the service resolves
	// the same submission.
	req, err := o.request()
	fatalIf(err)
	spec, g, err := req.Resolve()
	fatalIf(err)

	s := &mapper.TreeSearch{
		G: g, Spec: spec,
		Population: *pop, Generations: *gens, TileRounds: *tileRounds,
		Parallel: *parallel, Seed: *seed,
	}
	if *resumeFile != "" {
		src, rerr := os.ReadFile(*resumeFile)
		fatalIf(rerr)
		cp, derr := mapper.DecodeCheckpoint(src)
		fatalIf(derr)
		fatalIf(s.Resume(cp))
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "resuming from %s at generation %d/%d\n", *resumeFile, cp.NextGen, cp.Generations)
		}
	}
	if *checkpointFile != "" {
		s.Progress = func(p mapper.ProgressEvent) {
			if err := writeCheckpoint(*checkpointFile, p.Checkpoint); err != nil {
				fmt.Fprintln(os.Stderr, "tileflow-search: checkpoint:", err)
			}
		}
	}

	if !*jsonOut {
		fmt.Printf("exploring 3D space for %s on %s (%d x %d x %d evaluations)...\n",
			g.Name, spec.Name, *pop, *gens, *tileRounds)
	}
	res := s.Run()
	if res.Best == nil {
		fatalIf(fmt.Errorf("no valid dataflow found"))
	}
	if *jsonOut {
		resp, err := serve.NewSearchResponse(g, spec, res, false)
		fatalIf(err)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(resp))
		return
	}
	fmt.Printf("best cycles: %.4g\n", res.Best.Cycles)
	fmt.Printf("encoding:    %s\n", res.Encoding)
	fmt.Printf("factors:     %v\n", res.Best.Factors)
	fmt.Println("convergence (best-so-far cycles per generation):")
	for i, c := range res.Trace {
		fmt.Printf("  gen %2d: %.4g\n", i+1, c)
	}
	if *printTree {
		gd := mapper.NewGeneratedDataflow("best", g, spec, res.Encoding)
		root, err := gd.Build(res.Best.Factors)
		fatalIf(err)
		fmt.Print(root.String())
		fmt.Println("tile-centric notation:")
		fmt.Print(notation.Print(root))
		if _, err := core.Evaluate(root, g, spec, core.Options{}); err != nil {
			fmt.Println("note:", err)
		}
	}
}

// remoteOpts carries the search flags: local mode resolves the design
// point they name, server mode submits them all as a job.
type remoteOpts struct {
	server, archName, archFile, workload string
	pop, gens, tileRounds                int
	seed                                 int64
	tenant, class                        string
	warmStart                            bool
	maxAttempts                          int
	jsonOut                              bool
}

// exitQuota is the exit code for a tenant-quota refusal (HTTP 429), kept
// distinct from 1 (any other failure) so sweep scripts can back off and
// retry instead of aborting.
const exitQuota = 3

// runRemote submits the search to a tileflow-serve instance as an async
// job and follows it to completion, returning the process exit code.
// Error bodies from the server are relayed to stdout byte-for-byte — a
// quota 429 renders identically here and over raw HTTP.
func runRemote(o *remoteOpts, stdout io.Writer) (int, error) {
	req, err := o.request()
	if err != nil {
		return 1, err
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return 1, err
	}
	resp, err := http.Post(o.server+"/v1/jobs/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return 1, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 1, err
	}
	if resp.StatusCode != http.StatusAccepted {
		// Relay the server's error envelope untouched; the bytes are the
		// contract (tests diff them against a direct HTTP call).
		stdout.Write(raw)
		if resp.StatusCode == http.StatusTooManyRequests {
			return exitQuota, nil
		}
		return 1, nil
	}
	var job serve.JobJSON
	if err := json.Unmarshal(raw, &job); err != nil {
		return 1, err
	}
	if !o.jsonOut {
		fmt.Fprintf(os.Stderr, "submitted job %s (tenant=%q class=%s)\n", job.ID, job.Tenant, job.Class)
	}

	for !terminalState(job.State) {
		time.Sleep(200 * time.Millisecond)
		r, err := http.Get(o.server + "/v1/jobs/" + job.ID)
		if err != nil {
			return 1, err
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return 1, err
		}
		if r.StatusCode != http.StatusOK {
			stdout.Write(b)
			return 1, nil
		}
		if err := json.Unmarshal(b, &job); err != nil {
			return 1, err
		}
	}
	if job.State != "done" {
		return 1, fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if o.jsonOut {
		stdout.Write(job.Result)
		fmt.Fprintln(stdout)
		return 0, nil
	}
	var res serve.SearchResponse
	if err := json.Unmarshal(job.Result, &res); err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "best cycles: %.4g\n", res.Cycles)
	fmt.Fprintf(stdout, "encoding:    %s\n", res.Encoding)
	fmt.Fprintf(stdout, "factors:     %v\n", res.Factors)
	return 0, nil
}

// request is the SearchRequest the flags name, with -arch-file read into
// its inline arch_spec.
func (o *remoteOpts) request() (serve.SearchRequest, error) {
	req := serve.SearchRequest{
		Arch:        o.archName,
		Workload:    o.workload,
		Population:  o.pop,
		Generations: o.gens,
		TileRounds:  o.tileRounds,
		Seed:        o.seed,
		Tenant:      o.tenant,
		Class:       o.class,
		WarmStart:   o.warmStart,
		MaxAttempts: o.maxAttempts,
	}
	if o.archFile != "" {
		src, err := os.ReadFile(o.archFile)
		if err != nil {
			return req, err
		}
		req.Arch, req.ArchSpec = "", string(src)
	}
	return req, nil
}

func terminalState(s string) bool {
	switch s {
	case "done", "failed", "cancelled", "poisoned":
		return true
	}
	return false
}

// writeCheckpoint persists a checkpoint atomically (tmp + rename), so a
// kill mid-write leaves the previous checkpoint intact.
func writeCheckpoint(path string, cp *mapper.Checkpoint) error {
	b, err := mapper.EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tileflow-search:", err)
		os.Exit(1)
	}
}
