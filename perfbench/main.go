// Command perfbench is the repository's end-to-end benchmark. It runs the
// real programs (cmd/gendata, cmd/spcube, cmd/spserve) on generated inputs,
// checks every output against an independent oracle, and prints one JSON
// result line:
//
//	perfbench --workload build-skewed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant of the workload, which replays the pipeline in process
// with spans around the calls into each layer and reports the per-layer
// metrics. See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line's shape. Failed counts every operation that
// failed: an error, a leak, or an output the oracle rejects. Correct is
// false when any output was rejected, except the serving fault probe's (see
// faultProbe): that answer is wrong on every run by a known fault, and
// counts as a failed operation only.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's settings and bookkeeping, shared by every workload.
type env struct {
	seed    int64
	seconds time.Duration
	bin     string // directory holding the built programs
	work    string // scratch directory owned by this run
	spans   string // where a traced run writes its spans

	attempted, failed int
	mismatches        int
	metrics           map[string]metric
}

func (e *env) set(name, unit string, v float64) { e.metrics[name] = metric{v, unit} }

// fail records one failed operation and says why on stderr. Correct
// stays true.
func (e *env) fail(format string, args ...any) {
	e.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// mismatch records one operation whose output disagrees with the oracle.
func (e *env) mismatch(format string, args ...any) {
	e.mismatches++
	e.fail("wrong output: "+format, args...)
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, traced func(*env) error }{
	"build-skewed": {func(e *env) error { return runBuild(e, skewedBuild) }, func(e *env) error { return traceBuild(e, skewedBuild) }},
	"build-spill":  {func(e *env) error { return runBuild(e, spillBuild) }, func(e *env) error { return traceBuild(e, spillBuild) }},
	"serve-ingest": {runServe, traceServe},
}

func main() {
	var (
		workload = flag.String("workload", "", "build-skewed, build-spill or serve-ingest")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	flag.Parse()
	// run.sh builds the programs into .bench_build/bin; runs work in
	// .bench_build/work. Both are relative to the repository root.
	bin, work := filepath.Join(".bench_build", "bin"), filepath.Join(".bench_build", "work")
	if err := run(*workload, *seed, *seconds, *trace == 1, bin, work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, bin, work string) error {
	w, ok := workloads[workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	for _, prog := range []string{"gendata", "spcube", "spserve"} {
		if _, err := os.Stat(filepath.Join(bin, prog)); err != nil {
			return fmt.Errorf("program under test not built: %w", err)
		}
	}
	spans := filepath.Join(work, workload+"-spans.jsonl")
	work, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d", workload, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err = filepath.Abs(bin)
	if err != nil {
		return err
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second,
		bin: bin, work: work, spans: spans, metrics: map[string]metric{}}

	host := startHost()
	if trace {
		err = w.traced(e)
	} else {
		err = w.run(e)
	}
	if err != nil {
		return err
	}
	for _, pid := range leftoverChildren() {
		e.fail("child process %d still running at the end of the run", pid)
		if p, err := os.FindProcess(pid); err == nil {
			_ = p.Kill()
			_, _ = p.Wait()
		}
	}
	refMs, stealMs := host.stop()
	fmt.Fprintf(os.Stderr, "perfbench: host reference kernel %.1f ms, steal %.0f ms over the run\n", refMs, stealMs)
	if trace {
		e.set("host.ref_ms", "ms", refMs)
		e.set("host.steal_ms", "ms", stealMs)
	}
	if trace {
		if err := fillPerLayer(e.metrics); err != nil {
			return err
		}
	}
	if e.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(report{Correct: e.mismatches == 0, Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// procs bounds the benchmark's own concurrency: load-generator workers and
// connections never exceed the host's CPU count.
func procs() int { return runtime.NumCPU() }

// perLayer lists every per-layer metric a traced run prints, with its unit.
// A layer a workload does not exercise reports 0.
var perLayer = [][2]string{
	{"load.parse_ms", "ms"}, {"load.rows", "count"},
	{"sketch.round_ms", "ms"}, {"sketch.bytes", "B"}, {"sketch.skewed_groups", "count"}, {"sketch.sample_tuples", "count"},
	{"mr.round_ms", "ms"}, {"mr.map_ms", "ms"}, {"mr.reduce_ms", "ms"}, {"mr.tasks", "count"}, {"mr.retries", "count"},
	{"mr.shuffle_records", "count"}, {"mr.shuffle_bytes", "B"},
	{"mr.spills", "count"}, {"mr.spill_bytes", "B"}, {"mr.spill_disk_bytes", "B"}, {"mr.merge_passes", "count"},
	{"mr.spill_stall_ms", "ms"}, {"mr.prefetch_hits", "count"}, {"mr.prefetch_misses", "count"},
	{"compute.other_ms", "ms"}, {"cube.collect_ms", "ms"}, {"cube.groups", "count"},
	{"output.write_ms", "ms"}, {"output.bytes", "B"},
	{"serve.index_ms", "ms"},
	{"serve.probe_us.point", "us"}, {"serve.probe_us.slice", "us"}, {"serve.probe_us.rollup", "us"}, {"serve.probe_us.topk", "us"},
	{"serve.service_us.point", "us"}, {"serve.service_us.slice", "us"}, {"serve.service_us.rollup", "us"}, {"serve.service_us.topk", "us"},
	{"serve.http_us.point", "us"}, {"serve.http_us.slice", "us"}, {"serve.http_us.rollup", "us"}, {"serve.http_us.topk", "us"},
	{"serve.batches", "count"}, {"serve.queries_per_batch", "ratio"}, {"serve.probes_per_query", "ratio"}, {"serve.cache_hit_ratio", "ratio"},
	{"serve.query_p50_ms", "ms"}, {"serve.query_p99_ms", "ms"}, {"serve.late_p99_ms", "ms"},
	{"delta.apply_ms", "ms"}, {"delta.changes", "count"}, {"delta.cycles_delta", "count"}, {"delta.cycles_rebuild", "count"},
	{"delta.freshness_ms", "ms"}, {"delta.setup_ms", "ms"}, {"serve.patch_ms", "ms"}, {"serve.swap_ms", "ms"},
	{"runtime.gc_cpu_ms", "ms"}, {"runtime.heap_peak_mb", "MB"},
	{"host.ref_ms", "ms"}, {"host.steal_ms", "ms"},
	{"trace.layers_ms", "ms"}, {"trace.overhead_ms", "ms"}, {"cli.wall_ms", "ms"}, {"cli.other_ms", "ms"}, {"engine.share_pct", "%"},
}

// fillPerLayer reports 0 for every per-layer metric the workload did not
// set, and rejects a metric missing from perLayer or with another unit.
func fillPerLayer(m map[string]metric) error {
	units := map[string]string{}
	for _, p := range perLayer {
		units[p[0]] = p[1]
		if _, ok := m[p[0]]; !ok {
			m[p[0]] = metric{0, p[1]}
		}
	}
	for name, v := range m {
		if u, ok := units[name]; !ok || u != v.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not declared", name, v.Unit)
		}
	}
	return nil
}
