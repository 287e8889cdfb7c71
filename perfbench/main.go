// Command perfbench is TileFlow-Go's benchmark. It drives the system from
// outside — through public functions and over loopback HTTP to an
// in-process serve.Server — on one of four workloads, checks every output
// it gets back, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer table) as one JSON object on the last line of standard output.
//
//	perfbench --workload tune --seed 1 --seconds 20 --trace 0
//
// See README.md for why each workload exists and how each metric is taken.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// smoke shrinks every size (catalog draws, pools, search budgets) so
	// the package's own tests can run each workload in well under a second.
	smoke bool
	// tmp is where durable job stores live; it is removed at exit.
	tmp string
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	// metrics holds the end-to-end metrics by name (untraced runs).
	metrics map[string]float64
	// notes are human-readable lines for standard error: the sample
	// counts behind each percentile, derived figures, failures.
	notes []string
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation with its reason; only the first few
// reasons are kept so a systematic failure does not flood the output.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.notef("FAIL: "+format, args...)
	}
}

// workloadFunc runs one workload: set-up (repeated, see repeatSetup), the
// measured window, then the correctness checks. tr is nil on an untraced
// run; a traced run records its per-layer figures into tr.
type workloadFunc func(o options, tr *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"tune":          runTune,
	"explore":       func(o options, tr *tracer) (*result, error) { return runExplore(o, tr, false) },
	"explore-fleet": func(o options, tr *tracer) (*result, error) { return runExplore(o, tr, true) },
	"serve":         runServe,
}

// workloadOrder is the order of --workload all.
var workloadOrder = []string{"tune", "explore", "explore-fleet", "serve"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. What an "op" is depends on the workload (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"best_cycles_geomean", "cycles"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "tune, explore, explore-fleet, serve, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed draws the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports the per-layer table instead of the end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes, for a quick check that every workload runs")
	tmp := fs.String("tmp", "", "directory for temporary job stores (default: the system temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, smoke: *smoke}
	if *tmp != "" {
		if err := os.MkdirAll(*tmp, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	var err error
	if o.tmp, err = os.MkdirTemp(*tmp, "perfbench-*"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.tmp)

	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", n, strings.Join(workloadOrder, ", "))
			return 2
		}
	}
	ctxLine, err := json.Marshal(map[string]any{"context": machineContext(*seed)})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(ctxLine))

	total := report{Metrics: map[string]metricValue{}}
	opsPerS := map[string]float64{}
	for _, n := range names {
		o.workload = n
		rep, err := measure(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		printTable(stderr, n, rep)
		opsPerS[n] = rep.ops
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = v
		}
	}
	// With both explore workloads run, the fleet's pay-off on this machine
	// is recorded with the result, on its own line before the last.
	if f, e := opsPerS["explore-fleet"], opsPerS["explore"]; f > 0 && e > 0 {
		derived, err := json.Marshal(map[string]any{"derived": map[string]float64{"explore-fleet/explore.jobs_per_s": f / e}})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(derived))
	}
	total.Correct = total.Failed == 0
	line, err := json.Marshal(&total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	ops   float64  // ops_per_s of the untraced run, for the derived ratio
	notes []string // human-readable lines
	order []string // metric names in table order
}

// measure runs one workload. Untraced, it reports the end-to-end metrics.
// Traced, it runs the workload twice for half the window each — once
// untraced, once traced — and reports the per-layer table plus the
// tracing overhead: the untraced run's ops_per_s over the traced run's,
// minus one.
func measure(o options) (*report, error) {
	fn := workloads[o.workload]
	rep := &report{Metrics: map[string]metricValue{}}
	if !o.trace {
		r, err := fn(o, nil)
		if err != nil {
			return nil, err
		}
		for _, m := range endToEnd {
			v, ok := r.metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("workload did not report %s", m.name)
			}
			rep.Metrics[m.name] = metricValue{v, m.unit}
			rep.order = append(rep.order, m.name)
		}
		rep.Attempted, rep.Failed, rep.ops, rep.notes = r.attempted, r.failed, r.metrics["ops_per_s"], r.notes
		return rep, nil
	}
	half := o
	half.seconds = o.seconds / 2
	base, err := fn(half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := fn(half, tr)
	if err != nil {
		return nil, err
	}
	if traced.metrics["ops_per_s"] > 0 {
		tr.set("trace.overhead", base.metrics["ops_per_s"]/traced.metrics["ops_per_s"]-1)
	}
	for _, m := range perLayer() {
		rep.Metrics[m.name] = metricValue{tr.get(m.name), m.unit}
		rep.order = append(rep.order, m.name)
	}
	rep.Attempted = base.attempted + traced.attempted
	rep.Failed = base.failed + traced.failed
	rep.ops = base.metrics["ops_per_s"]
	rep.notes = append(base.notes, traced.notes...)
	return rep, nil
}

// printTable writes a workload's metrics, one per line, to w.
func printTable(w io.Writer, name string, rep *report) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", name, rep.Attempted, rep.Failed)
	for _, k := range rep.order {
		m := rep.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// machineContext is recorded with every result: what the numbers were
// measured on.
func machineContext(seed int64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       seed,
	}
}

// cpuModel reads the first model name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errNoOps reports a measured window that completed nothing.
var errNoOps = errors.New("no operation completed in the measured window")
