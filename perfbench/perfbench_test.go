package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runSmoke runs the benchmark in smoke mode (tiny sizes) and decodes its
// last output line.
func runSmoke(t *testing.T, workload string, trace int) report {
	t.Helper()
	rep, _ := runSmokeLines(t, workload, trace)
	return rep
}

// runSmokeLines is runSmoke that also returns every standard output line.
func runSmokeLines(t *testing.T, workload string, trace int) (report, []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--smoke", "--workload", workload, "--seed", "7", "--seconds", "0.2",
		"--trace", map[int]string{0: "0", 1: "1"}[trace], "--tmp", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	return rep, lines
}

// TestSmoke runs every workload untraced and traced with the correctness
// checks on, and requires every metric name with its unit.
func TestSmoke(t *testing.T) {
	for _, wl := range workloadOrder {
		t.Run(wl, func(t *testing.T) {
			rep := runSmoke(t, wl, 0)
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("got %d end-to-end metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := rep.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s: got %+v, want unit %s", m.name, v, m.unit)
				}
				if ok && v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, v.Value)
				}
			}
			rep = runSmoke(t, wl, 1)
			want := perLayer()
			if len(rep.Metrics) != len(want) {
				t.Errorf("got %d per-layer metrics, want %d", len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := rep.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s: got %+v, want unit %s", m.name, v, m.unit)
				}
			}
			if s := rep.Metrics["unattributed.share"].Value; s < -0.05 || s > 1 {
				t.Errorf("unattributed.share = %v, want within [0, 1]", s)
			}
		})
	}
}

// TestSameSeedSameInputs pins that the workload seed alone fixes the
// inputs: two tune runs with one seed report the same search quality.
func TestSameSeedSameInputs(t *testing.T) {
	a := runSmoke(t, "tune", 0).Metrics["best_cycles_geomean"].Value
	b := runSmoke(t, "tune", 0).Metrics["best_cycles_geomean"].Value
	if a != b {
		t.Fatalf("best_cycles_geomean %v then %v with the same seed", a, b)
	}
}

// TestAllRecordsFleetRatio pins that --workload all records the
// explore-fleet/explore ratio on standard output, before the result.
func TestAllRecordsFleetRatio(t *testing.T) {
	_, lines := runSmokeLines(t, "all", 0)
	var d struct {
		Derived map[string]float64 `json:"derived"`
	}
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &d) != nil {
		t.Fatalf("no derived line before the result:\n%s", strings.Join(lines, "\n"))
	}
	if r := d.Derived["explore-fleet/explore.jobs_per_s"]; r <= 0 {
		t.Fatalf("derived ratio = %v, want > 0", r)
	}
}

// TestWeightedPercentileIgnoresSampleShares pins that the class-weighted
// percentiles depend on each class's latencies, not on how many samples
// each class contributed: tripling the fast class's samples leaves them.
func TestWeightedPercentileIgnoresSampleShares(t *testing.T) {
	weights := map[string]float64{"fast": 0.9, "slow": 0.1}
	mk := func(fastCopies int) []opSample {
		var ops []opSample
		for k := 0; k < fastCopies; k++ {
			for i := 1; i <= 100; i++ {
				ops = append(ops, opSample{lat: float64(i), class: "fast"})
			}
		}
		for i := 1; i <= 100; i++ {
			ops = append(ops, opSample{lat: 1000 + float64(i), class: "slow"})
		}
		return ops
	}
	for _, p := range []float64{50, 99} {
		a, b := weightedPercentile(mk(1), weights, p), weightedPercentile(mk(3), weights, p)
		if a != b {
			t.Errorf("p%g: %v with one copy of the fast class, %v with three", p, a, b)
		}
	}
	if got := weightedPercentile(mk(1), weights, 50); got != 56 {
		t.Errorf("p50 = %v, want 56 (the fast class's p55.6)", got)
	}
	if got := weightedPercentile(mk(1), weights, 99); got != 1090 {
		t.Errorf("p99 = %v, want 1090 (the slow class's p90)", got)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tune", "--trace", "2"},
		{"--workload", "tune", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "--tmp", t.TempDir()), &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want an error", args)
		}
	}
}
