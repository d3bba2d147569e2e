// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator, MBPTA, runner, service, cluster and workload layers
// through their public functions on one of three seeded workloads and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 the run measures half its time untraced and half traced and
// reports the per-layer metrics plus the tracing overhead. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart anchors the cold set-up: the process's first set-up is
// timed from here, so runtime start-up is part of it.
var (
	processStart = time.Now()
	coldTimed    bool
)

// setupTimer times a run's fresh set-ups; setup_s is the median of the
// warm ones. The first set-up of a process (cold) counts from process
// start and pays first-touch costs no later set-up pays; it is reported
// apart and kept out of setup_s.
type setupTimer struct {
	// samples is how many warm set-ups a run times. A set-up takes 5 to
	// 150 ms, and one GC cycle or page-fault burst moves a single sample
	// by half, so each workload takes one to two seconds' worth.
	samples int
	cold    float64   // seconds from process start to the end of the first set-up
	warm    []float64 // seconds per later set-up
}

// time runs one set-up after collecting the previous one's garbage, so
// every set-up starts from the same heap state and the GC stays outside
// the timed window.
func (t *setupTimer) time(setup func() error) error {
	runtime.GC()
	t0 := time.Now()
	cold := !coldTimed
	if cold {
		t0, coldTimed = processStart, true
	}
	if err := setup(); err != nil {
		return err
	}
	if d := time.Since(t0).Seconds(); cold {
		t.cold = d
	} else {
		t.warm = append(t.warm, d)
	}
	return nil
}

// before returns how many set-ups that only feed setup_s a run makes
// before pass's own: the process's cold one first if it is still due, and
// warm ones up to t.samples (two in a smoke run) in all, spread evenly over
// the passes. The host's speed swings over seconds, so set-ups bunched at
// the start of a run would all see one phase of it.
func (t *setupTimer) before(o options, pass, passes int) int {
	want := t.samples
	if o.tiny {
		want = 2
	}
	n := max(0, want-passes)
	count := n*(pass+1)/passes - n*pass/passes
	if !coldTimed {
		count++
	}
	return count
}

// fill reports setup_s and its samples.
func (t *setupTimer) fill(out *outcome) {
	out.e2e["setup_s"] = median(t.warm)
	out.info["setup_s_samples"] = t.warm
	if t.cold > 0 {
		out.info["setup_cold_s"] = t.cold
	}
}

// heldOutSeed is reserved for re-checking claims made on other seeds; it
// is not used while tuning the benchmark.
const heldOutSeed = 9091

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics lists the end-to-end metrics every workload reports, with
// their units (see README.md for what each means per workload).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"runs_per_s", "1/s"},
	{"answers_per_s", "1/s"},
	{"miss_p50_ms", "ms"},
	{"miss_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
}

// layerMetrics lists the per-layer metrics of a traced run. A workload
// that never enters a layer reports that layer's metrics as 0.
var layerMetrics = []struct{ name, unit string }{
	{"sim.collect.us_per_run.short", "us"},
	{"sim.collect.us_per_run.median", "us"},
	{"sim.collect.us_per_run.long", "us"},
	{"sim.collect.busy_share", "ratio"},
	{"runner.idle_share", "ratio"},
	{"mbpta.analyze.us", "us"},
	{"mbpta.iid_rejected", "count"},
	{"sim.warm.ms", "ms"},
	{"sim.run.ns_per_instr.flat", "ns"},
	{"sim.run.ns_per_instr.multilevel", "ns"},
	{"sim.run.ns_per_instr.coherent", "ns"},
	{"sim.pool_get.us", "us"},
	{"sim.new.ms", "ms"},
	{"sim.cycles", "count"},
	{"sim.instr", "count"},
	{"cache.llc_misses", "count"},
	{"efl.evictions", "count"},
	{"efl.stall_cycles", "count"},
	{"bus.wait_cycles", "count"},
	{"coherence.invalidations", "count"},
	{"service.plan.us.benchmark", "us"},
	{"service.plan.us.trace", "us"},
	{"service.handler.us.hit", "us"},
	{"service.http.us", "us"},
	{"service.handler.ms.miss", "ms"},
	{"sim.stream.us_per_run", "us"},
	{"service.worker.busy_share", "ratio"},
	{"service.cache.hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"cluster.route.local", "count"},
	{"cluster.route.forward", "count"},
	{"cluster.route.store", "count"},
	{"cluster.route.steal", "count"},
	{"cluster.forward.ms", "ms"},
	{"cluster.store.get_us", "us"},
	{"cluster.store.put_us", "us"},
	{"workload.replay.us", "us"},
	{"unattributed_share", "ratio"},
}

// unattributedMargin is the share of measured time the trace may leave
// unexplained before the report flags it.
const unattributedMargin = 0.02

// options is one measurement request handed to a workload.
type options struct {
	seed    uint64
	seconds time.Duration
	tiny    bool    // smoke-test size: one short pass
	tracer  *tracer // nil: tracing off
	scratch string  // directory for files the workload writes
}

// outcome is what a workload measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	notes     []string // human-readable findings, printed before the result
	info      map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// fail records one failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 50 {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*outcome, error){
	"campaign": runCampaign,
	"deploy":   runDeploy,
	"serve":    runServe,
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (scratch files go under <root>/.bench_build/perfbench)")
		workload = flag.String("workload", "", "campaign, deploy or serve")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 30, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|deploy|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	scratch := filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := measure(run, options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, scratch: scratch}, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}
	res.Info["workload"] = *workload
	res.Info["seed"] = *seed
	res.Info["held_out_seed"] = heldOutSeed
	writeReport(os.Stdout, res)
	if err := os.RemoveAll(scratch); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	reportPath := filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("report-%s-%d-trace%d.json", *workload, *seed, *trace))
	if b, err := json.MarshalIndent(res, "", "  "); err == nil {
		os.WriteFile(reportPath, b, 0o644)
	}
}

// result is the benchmark's report; the last stdout line is its first
// four fields.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]any    `json:"-"`
	Notes     []string          `json:"-"`
}

// MarshalJSON renders the full report (info and notes included) for the
// report file; the result line uses resultLine.
func (r *result) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed,
		"metrics": r.Metrics, "info": r.Info, "notes": r.Notes,
	})
}

// measure runs the workload once (untraced) or twice (untraced, then
// traced, each for half the time) and assembles the report.
func measure(run func(options) (*outcome, error), o options, traced bool) (*result, error) {
	res := &result{Metrics: map[string]metric{}, Info: hostInfo()}
	if !traced {
		out, err := run(o)
		if err != nil {
			return nil, err
		}
		out.e2e["max_rss_mb"] = maxRSSMiB()
		for _, m := range e2eMetrics {
			v, ok := out.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload did not measure %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.absorb(out)
		return res, nil
	}
	half := o
	half.seconds = o.seconds / 2
	plain, err := run(half)
	if err != nil {
		return nil, err
	}
	plain.e2e["max_rss_mb"] = maxRSSMiB()
	half.tracer = newTracer()
	traced2, err := run(half)
	if err != nil {
		return nil, err
	}
	// Peak RSS is a process high-water mark, so the traced half's value
	// includes the untraced half; the overhead reads the growth.
	traced2.e2e["max_rss_mb"] = maxRSSMiB()
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{traced2.layer[m.name], m.unit}
	}
	for _, m := range e2eMetrics {
		res.Metrics["overhead."+m.name] = metric{traced2.e2e[m.name] - plain.e2e[m.name], m.unit}
	}
	if u := traced2.layer["unattributed_share"]; u > unattributedMargin {
		traced2.notes = append(traced2.notes, fmt.Sprintf("FLAG: unattributed_share %.4f exceeds the %.2f margin", u, unattributedMargin))
	}
	spans := filepath.Join(filepath.Dir(o.scratch), fmt.Sprintf("spans-%s.jsonl", filepath.Base(o.scratch)))
	if err := half.tracer.write(spans); err != nil {
		return nil, err
	}
	res.Info["spans_file"] = spans
	res.Info["untraced_e2e"] = plain.e2e
	res.Info["traced_e2e"] = traced2.e2e
	res.absorb(plain)
	res.absorb(traced2)
	return res, nil
}

func (r *result) absorb(o *outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Notes = append(r.Notes, o.notes...)
	for k, v := range o.info {
		r.Info[k] = v
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// writeReport prints every metric by name with its unit, the notes and
// the host stamp, then the one-line JSON result.
func writeReport(f *os.File, r *result) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if b, err := json.Marshal(r.Info[k]); err == nil {
			fmt.Fprintf(w, "# %s: %s\n", k, b)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	w.Write(line)
	w.WriteByte('\n')
}

// hostInfo stamps the report with the host it ran on.
func hostInfo() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model": model, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	}
}

// maxRSSMiB returns the process's peak resident set size (VmHWM).
func maxRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
