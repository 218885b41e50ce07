package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// buildSpec is one build workload: the generated input and the spcube
// invocation that cubes it.
type buildSpec struct {
	name    string
	dataset string // gendata -dataset
	rows    int    // gendata -n
	dims    int    // gendata -d (uniform only); wiki has 4
	algo    string
	agg     string
	k       int
	minSup  int
	budget  int64 // -spill-budget; -1 never spills
}

// par is the fixed spcube -p of every build and serving process.
const par = 1

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

var (
	// skewedBuild is the paper's headline case: the wiki-traffic
	// fingerprint, dozens of skewed groups, SP-Cube, in memory.
	skewedBuild = buildSpec{name: "build-skewed", dataset: "wiki", rows: 50_000, dims: 4,
		algo: "sp-cube", agg: "sum", k: 20, budget: -1}
	// spillBuild shuffles 2^d records per row through a tight map-side
	// budget: spill writing, block framing, read-ahead and multi-pass
	// merges do most of the work, and an iceberg threshold keeps the
	// output small.
	spillBuild = buildSpec{name: "build-spill", dataset: "uniform", rows: 60_000, dims: 4,
		algo: "naive", agg: "count", k: 8, minSup: 2, budget: 64 << 10}
)

// spcubeArgs is the build's command line.
func (b buildSpec) spcubeArgs(in, out, spillDir string) []string {
	return []string{"-in", in, "-o", out, "-algo", b.algo, "-agg", b.agg,
		"-k", strconv.Itoa(b.k), "-p", strconv.Itoa(par), "-minsup", strconv.Itoa(b.minSup),
		"-spill-budget", strconv.FormatInt(b.budget, 10), "-spill-dir", spillDir, "-stats=false"}
}

// procResult is one finished child process.
type procResult struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
}

// runProc runs a program to completion with TMPDIR pointed at tmp, and
// returns its wall time, CPU time and peak RSS.
func runProc(tmp string, timeout time.Duration, prog string, args ...string) (procResult, error) {
	cmd := exec.Command(prog, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{}, err
	}
	timer := time.AfterFunc(timeout, func() { _ = cmd.Process.Kill() })
	err := cmd.Wait()
	wall := time.Since(start)
	timer.Stop()
	res := procResult{wall: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		res.rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w: %s", filepath.Base(prog), err, stderr.String())
	}
	return res, nil
}

// buildInputs generates a build's input CSV setupRepeats times and returns
// the median generation time. Set-up time is CPU time (user+system): on a
// shared host, wall time of a 30 ms process swings with CPU steal far more
// than with the work it does.
func buildInputs(e *env, b buildSpec, in string) (setup float64, err error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		_ = os.Remove(in)
		r, err := runProc(e.work, time.Minute, filepath.Join(e.bin, "gendata"), "-dataset", b.dataset,
			"-n", strconv.Itoa(b.rows), "-d", strconv.Itoa(b.dims), "-seed", strconv.FormatInt(e.seed, 10), "-o", in)
		if err != nil {
			return 0, err
		}
		times = append(times, r.cpu.Seconds())
	}
	return median(times), nil
}

// builder runs spcube builds and checks each one: the first checked build
// against the oracle, every later one byte for byte against the first
// (the method is deterministic), and every build for files left behind in
// its spill and temp directories.
//
// The oracle runs after the builds: a child forked from this process
// starts with this process's resident memory counted in its peak RSS, so
// this process stays small while builds run.
type builder struct {
	e         *env
	b         buildSpec
	in, out   string
	first     string // the first checked build's output, kept for the oracle
	tmp       string
	firstHash []byte
}

func newBuilder(e *env, b buildSpec, in string) (*builder, error) {
	bl := &builder{e: e, b: b, in: in, out: filepath.Join(e.work, "cube.csv"),
		first: filepath.Join(e.work, "first.csv"), tmp: filepath.Join(e.work, "tmp")}
	return bl, os.MkdirAll(bl.tmp, 0o755)
}

// build runs one spcube process; checked builds count as operations.
func (bl *builder) build(checked bool) (procResult, bool) {
	_ = os.Remove(bl.out)
	r, err := runProc(bl.tmp, 2*time.Minute, filepath.Join(bl.e.bin, "spcube"), bl.b.spcubeArgs(bl.in, bl.out, bl.tmp)...)
	if !checked {
		if err != nil {
			bl.e.fail("warm-up build: %v", err)
		}
		bl.leaks()
		return r, err == nil
	}
	bl.e.attempted++
	if err != nil {
		bl.e.fail("build: %v", err)
		return r, false
	}
	ok := bl.leaks() && bl.verify(bl.out)
	return r, ok
}

// verify compares an output with the first checked build's, byte for
// byte; the first one is kept for checkOracle.
func (bl *builder) verify(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		bl.e.fail("reading cube: %v", err)
		return false
	}
	sum := sha256.Sum256(data)
	if bl.firstHash == nil {
		bl.firstHash = sum[:]
		if err := os.Rename(path, bl.first); err != nil {
			bl.e.fail("keeping the first cube: %v", err)
			return false
		}
		return true
	}
	if !bytes.Equal(sum[:], bl.firstHash) {
		bl.e.mismatch("%s: output differs from the first build's", bl.b.name)
		return false
	}
	return true
}

// checkOracle checks the first build's output row by row against the
// oracle's cube of the input.
func (bl *builder) checkOracle() error {
	header, rows, err := readRows(bl.in)
	if err != nil {
		return err
	}
	header = append(header[:len(header)-1:len(header)-1], bl.b.agg)
	want := oracleCube(rows, len(header)-1, bl.b.agg, bl.b.minSup)
	f, err := os.Open(bl.first)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := checkCubeCSV(f, header, want); err != nil {
		bl.e.mismatch("%s: %v", bl.b.name, err)
	}
	return nil
}

// leaks reports (as a failed operation) anything a build left in its
// spill/temp directory, and removes it.
func (bl *builder) leaks() bool {
	left, _ := os.ReadDir(bl.tmp)
	if len(left) == 0 {
		return true
	}
	bl.e.fail("build left %d entries in its spill directory (first %s)", len(left), left[0].Name())
	for _, de := range left {
		_ = os.RemoveAll(filepath.Join(bl.tmp, de.Name()))
	}
	return false
}

// runBuild is a build workload's end-to-end run: set up, one untimed
// warm-up build, then builds back to back for the measured seconds.
func runBuild(e *env, b buildSpec) error {
	in := filepath.Join(e.work, "input.csv")
	setup, err := buildInputs(e, b, in)
	if err != nil {
		return err
	}
	bl, err := newBuilder(e, b, in)
	if err != nil {
		return err
	}
	if _, ok := bl.build(false); !ok {
		return fmt.Errorf("warm-up build failed")
	}
	var walls, cpus, rss []float64
	start := time.Now()
	for time.Since(start) < e.seconds {
		r, _ := bl.build(true)
		walls = append(walls, durMs(r.wall))
		cpus = append(cpus, durMs(r.cpu))
		rss = append(rss, r.rssMB)
	}
	if err := bl.checkOracle(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d builds, build_s median %.3f (q1 %.3f, q3 %.3f), cpu %.0f ms, rss %.1f MB\n",
		b.name, len(walls), median(walls)/1e3, quantile(walls, 0.25)/1e3, quantile(walls, 0.75)/1e3, median(cpus), median(rss))
	e.set("setup_s", "s", setup)
	e.set("op_cpu_ms", "ms", median(cpus))
	e.set("peak_rss_mb", "MB", median(rss))
	return nil
}
