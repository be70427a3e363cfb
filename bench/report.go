package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// harnessVersion changes whenever a metric's definition or the load
// model does; -compare refuses to compare across versions.
const harnessVersion = 1

// stamp says what produced a report, so that two reports are compared
// only when they can be.
type stamp struct {
	Harness int    `json:"harness_version"`
	Commit  string `json:"commit"`
	Dirty   bool   `json:"dirty"`
	Go      string `json:"go"`
	NProc   int    `json:"nproc"`
	Kernel  string `json:"kernel"`
	Seed    int64  `json:"seed"`
	Seconds int    `json:"window_seconds"`
	Trace   bool   `json:"trace"`
	Smoke   bool   `json:"smoke,omitempty"`
	Repeat  int    `json:"repeat"`
}

func makeStamp(root string) stamp {
	st := stamp{Harness: harnessVersion, Go: runtime.Version(), NProc: runtime.NumCPU(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; the stamp then says so.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if c, err := git("rev-parse", "HEAD"); err == nil {
			st.Commit = c
			s, _ := git("status", "--porcelain")
			st.Dirty = s != ""
		}
	}
	return st
}

// daemonStamp is how one daemon ran.
type daemonStamp struct {
	Name       string   `json:"name"`
	Flags      []string `json:"flags"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Shards     int      `json:"shards"`
	DataDirFS  string   `json:"data_dir_fs,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload       string                 `json:"workload"`
	Seed           int64                  `json:"seed"`
	Daemons        []daemonStamp          `json:"daemons"`
	Attempted      int64                  `json:"attempted"`
	Failed         int64                  `json:"failed"`
	ViolationCount int                    `json:"violation_count"`
	Violations     []string               `json:"violations,omitempty"`
	Invalid        []string               `json:"invalid,omitempty"`
	Metrics        map[string]measurement `json:"metrics"`
}

func newResult(cfg runConfig, e *env) *result {
	r := &result{Workload: cfg.workload, Seed: cfg.seed}
	for _, d := range e.daemons {
		ds := daemonStamp{Name: d.name, Flags: d.flags}
		if st, err := e.c1.stats(d.base()); err == nil {
			ds.GOMAXPROCS, ds.Shards = st.CPUs, st.Shards
		}
		if e.dataDir != "" {
			ds.DataDirFS = fsType(e.dataDir)
		}
		r.Daemons = append(r.Daemons, ds)
	}
	return r
}

// report is what -out writes: a set of runs under one stamp.
type report struct {
	Stamp stamp     `json:"stamp"`
	Claim *string   `json:"claim"` // this harness claims no gain
	Runs  []*result `json:"runs"`
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// print lists every metric of a run by name with its unit, in table order.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d: %d operations, %d failed, %d violations\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.ViolationCount)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "%-32s %14.4f %-6s%s\n", d.Name, m.Value, m.Unit, n)
	}
	for _, v := range r.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	for _, v := range r.Invalid {
		fmt.Fprintln(w, "INVALID:", v)
	}
}

// contractLine is the driver's last line: every end-to-end metric
// (trace off) or every per-layer metric (trace on) by name. A per-layer
// metric of a layer that does no work on this workload reads 0 there;
// the report proper leaves it out instead.
func (r *result) contractLine(trace bool) (string, error) {
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok && !trace {
			return "", fmt.Errorf("%s did not yield end-to-end metric %s", r.Workload, d.Name)
		}
		metrics[d.Name] = val{m.Value, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.ViolationCount == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return string(line), err
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// compareReports prints one row per (metric, workload) with both sets'
// medians, the ratio with its base, and a verdict for metrics that have
// a bound in BENCHMARK.json: ok, regressed, or unresolved when the
// base's own run-to-run spread is wider than the bound. It returns the
// number of regressed and unresolved rows.
func compareReports(w io.Writer, b *benchmarkJSON, base, cand *report) (regressed, unresolved int, err error) {
	sa, sb := base.Stamp, cand.Stamp
	switch {
	case sa.Harness != sb.Harness:
		err = fmt.Errorf("harness versions differ: %d vs %d", sa.Harness, sb.Harness)
	case sa.NProc != sb.NProc:
		err = fmt.Errorf("nproc differs: %d vs %d", sa.NProc, sb.NProc)
	case sa.Seconds != sb.Seconds:
		err = fmt.Errorf("windows differ: %ds vs %ds", sa.Seconds, sb.Seconds)
	case sa.Seed != sb.Seed || sa.Repeat != sb.Repeat:
		err = fmt.Errorf("seeds differ: %d×%d vs %d×%d", sa.Seed, sa.Repeat, sb.Seed, sb.Repeat)
	case sa.Trace != sb.Trace || sa.Smoke != sb.Smoke:
		err = fmt.Errorf("passes differ: trace %v smoke %v vs trace %v smoke %v", sa.Trace, sa.Smoke, sb.Trace, sb.Smoke)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("refusing to compare: %w", err)
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	var order []string
	for _, m := range b.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range b.PerLayer {
		rules[m.Name] = rule{better: m.Better}
		order = append(order, m.Name)
	}
	values := func(r *report) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, run := range r.Runs {
			if out[run.Workload] == nil {
				out[run.Workload] = map[string][]float64{}
			}
			for name, m := range run.Metrics {
				out[run.Workload][name] = append(out[run.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := values(base), values(cand)
	workloads := make([]string, 0, len(va))
	for wl := range va {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "base %s%s (n=%d per workload) vs %s%s; nproc=%d, window=%ds\n",
		short(sa.Commit), dirtyMark(sa.Dirty), sa.Repeat, short(sb.Commit), dirtyMark(sb.Dirty), sa.NProc, sa.Seconds)
	if sa.NProc == 1 {
		fmt.Fprintln(w, "nproc is 1: no multi-core speed-up can be read from these numbers")
	}
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %9s %8s  %s\n", "workload", "metric", "base", "candidate", "cand/base", "spread", "verdict")
	for _, wl := range workloads {
		for _, name := range order {
			a, okA := va[wl][name]
			c, okB := vb[wl][name]
			if !okA || !okB {
				continue
			}
			ma, mc := median(a), median(c)
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f", mc/ma)
			}
			sp := spread(a)
			verdict := "info"
			if r := rules[name]; r.bound > 0 {
				worse := mc - ma
				if r.better == "higher" {
					worse = ma - mc
				}
				switch {
				case len(a) >= 2 && sp > r.bound:
					verdict = "unresolved"
					unresolved++
				case worse > r.bound*math.Abs(ma):
					verdict = "regressed"
					regressed++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(w, "%-14s %-30s %14.4f %14.4f %9s %7.1f%%  %s\n", wl, name, ma, mc, ratio, 100*sp, verdict)
		}
	}
	return regressed, unresolved, nil
}

func short(commit string) string {
	if len(commit) > 10 {
		return commit[:10]
	}
	return commit
}

func dirtyMark(d bool) string {
	if d {
		return "+dirty"
	}
	return ""
}
