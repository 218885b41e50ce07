package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spcube/spcube"
	"github.com/spcube/spcube/internal/mr"
)

// span is one timed call into a layer. Parent is the index of the span that
// caused it, -1 for a root.
type span struct {
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; with tracing off it records nothing.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return -1
	}
	return t.add(span{Name: name, Parent: parent, Start: time.Now()})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished (or still open) span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus its children's durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans writes the spans as JSON lines, the run's trace file.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// roundSpans turns the engine's round-start/round-end events into spans:
// "sketch" for the SP-Sketch round, "mr" for every other round, under the
// parent span current when the round starts.
type roundSpans struct {
	t       *tracer
	parent  atomic.Int64
	open    int
	lastEnd time.Time
}

func newRoundSpans(t *tracer) *roundSpans { return &roundSpans{t: t, open: -1} }

// TraceEvent implements mr.Tracer.
func (r *roundSpans) TraceEvent(ev mr.TraceEvent) {
	switch ev.Type {
	case mr.EvRoundStart:
		if !r.t.on.Load() {
			return
		}
		name := "mr"
		if ev.Job == "sp-sketch" {
			name = "sketch"
		}
		r.open = r.t.add(span{Name: name, Parent: int(r.parent.Load()), Start: ev.Time})
	case mr.EvRoundEnd:
		if r.open >= 0 {
			r.t.mu.Lock()
			r.t.spans[r.open].End = ev.Time
			r.t.mu.Unlock()
			r.open = -1
		}
		r.lastEnd = ev.Time
	}
}

// jsonlEvents feeds the engine's JSON-lines trace stream (the facade's
// Trace option) into a roundSpans.
type jsonlEvents struct {
	r       *roundSpans
	partial []byte
}

func (j *jsonlEvents) Write(p []byte) (int, error) {
	j.partial = append(j.partial, p...)
	for {
		i := bytes.IndexByte(j.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		var ev mr.TraceEvent
		if err := json.Unmarshal(j.partial[:i], &ev); err != nil {
			return 0, err
		}
		j.r.TraceEvent(ev)
		j.partial = j.partial[i+1:]
	}
}

// runtimeProbe samples the benchmark process's own GC CPU and heap size.
type runtimeProbe struct {
	samples  []metrics.Sample
	gcStart  float64
	heapPeak float64
}

func newRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
	p.gcStart = p.read()
	return p
}

// read samples the heap into the peak and returns the GC CPU seconds.
func (p *runtimeProbe) read() float64 {
	metrics.Read(p.samples)
	var gc float64
	if p.samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = p.samples[0].Value.Float64()
	}
	if p.samples[1].Value.Kind() == metrics.KindUint64 {
		if h := float64(p.samples[1].Value.Uint64()) / (1 << 20); h > p.heapPeak {
			p.heapPeak = h
		}
	}
	return gc
}

// gcMs returns the GC CPU milliseconds since the probe started.
func (p *runtimeProbe) gcMs() float64 { return (p.read() - p.gcStart) * 1e3 }

// replay is one in-process run of spcube's pipeline through the facade:
// load the CSV (NewRelation/AddRow), Compute, walk Groups into CSV.
type replay struct {
	wall   time.Duration
	stats  spcube.Stats
	rounds []roundDoc
	rows   int
	groups int
	bytes  int64
}

// roundDoc is the part of the engine's metrics document the trace reads.
type roundDoc struct {
	Job                  string    `json:"job"`
	MappersExecuted      int       `json:"mappersExecuted"`
	ReducersExecuted     int       `json:"reducersExecuted"`
	ShuffleRecords       int64     `json:"shuffleRecords"`
	ShuffleBytes         int64     `json:"shuffleBytes"`
	Spills               int64     `json:"spills"`
	SpillBytes           int64     `json:"spillBytes"`
	CompressedSpillBytes int64     `json:"compressedSpillBytes"`
	MergePasses          int64     `json:"mergePasses"`
	SpillWriteStallNs    int64     `json:"spillWriteStallNs"`
	PrefetchHits         int64     `json:"prefetchHits"`
	PrefetchMisses       int64     `json:"prefetchMisses"`
	Retries              int64     `json:"retries"`
	Mappers              []taskDoc `json:"mappers"`
	Reducers             []taskDoc `json:"reducers"`
}

type taskDoc struct {
	WallSeconds float64 `json:"wallSeconds"`
}

func parseRounds(data []byte) ([]roundDoc, error) {
	var doc struct {
		Rounds []roundDoc `json:"rounds"`
	}
	err := json.Unmarshal(data, &doc)
	return doc.Rounds, err
}

// runReplay runs the pipeline once; with t on, it records spans. Anything
// the engine leaves in its spill directory fails the replay, as it fails a
// CLI build.
func runReplay(b buildSpec, in, out, tmp string, t *tracer, probe *runtimeProbe) (rp replay, err error) {
	start := time.Now()
	root := t.begin("replay", -1)

	sp := t.begin("load", root)
	rel, err := loadFacade(in)
	t.end(sp)
	if err != nil {
		return rp, err
	}
	probe.read()

	spillRoot, err := os.MkdirTemp(tmp, "replay-*")
	if err != nil {
		return rp, err
	}
	defer func() {
		if left, _ := os.ReadDir(spillRoot); len(left) > 0 && err == nil {
			err = fmt.Errorf("replay left %d entries in its spill directory (first %s)", len(left), left[0].Name())
		}
		_ = os.RemoveAll(spillRoot)
	}()
	aggFn, err := spcube.AggByName(b.agg)
	if err != nil {
		return rp, err
	}
	alg, err := spcube.AlgByName(b.algo)
	if err != nil {
		return rp, err
	}
	budget := b.budget
	if budget < 0 {
		budget = 0 // the CLI's -1, never spill, is the engine's 0
	}
	opts := []spcube.Option{spcube.Aggregate(aggFn), spcube.Algorithm(alg), spcube.Workers(b.k),
		spcube.Parallelism(par), spcube.Seed(1), spcube.MinSupport(b.minSup),
		spcube.SpillBudget(budget), spcube.SpillDir(spillRoot), spcube.SpillCodec("raw")}
	sp = t.begin("compute", root)
	rs := newRoundSpans(t)
	if sp >= 0 {
		rs.parent.Store(int64(sp))
		opts = append(opts, spcube.Trace(&jsonlEvents{r: rs}))
	}
	c, err := spcube.Compute(rel, opts...)
	if sp >= 0 && !rs.lastEnd.IsZero() {
		// Collecting the cube from the DFS is what Compute does after its
		// last round.
		t.add(span{Name: "cube", Parent: sp, Start: rs.lastEnd, End: time.Now()})
	}
	t.end(sp)
	if err != nil {
		return rp, err
	}
	probe.read()

	sp = t.begin("output", root)
	n, err := writeFacadeCSV(out, rel, c, b.agg)
	t.end(sp)
	t.end(root)
	probe.read()
	if err != nil {
		return rp, err
	}
	rp.wall = time.Since(start)
	rp.stats = c.Stats()
	rp.rows = rel.NumRows()
	rp.groups = c.NumGroups()
	rp.bytes = n
	data, err := c.MetricsJSON()
	if err != nil {
		return rp, err
	}
	rp.rounds, err = parseRounds(data)
	return rp, err
}

// loadFacade reads the CSV the way cmd/spcube does, into a facade Relation.
func loadFacade(path string) (*spcube.Relation, error) {
	var rel *spcube.Relation
	err := scanCSV(path, func(h []string) { rel = spcube.NewRelation(h[:len(h)-1], h[len(h)-1]) },
		func(dims []string, m int64) { rel.AddRow(dims, m) })
	return rel, err
}

// writeFacadeCSV writes the cube the way cmd/spcube does and returns the
// bytes written.
func writeFacadeCSV(path string, rel *spcube.Relation, c *spcube.Cube, aggName string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(append(rel.DimNames(), aggName)); err != nil {
		return 0, err
	}
	var werr error
	c.Groups(func(g spcube.Group) {
		if werr == nil {
			werr = cw.Write(append(append([]string(nil), g.Dims...), strconv.FormatFloat(g.Value, 'g', -1, 64)))
		}
	})
	if werr != nil {
		return 0, werr
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), f.Close()
}

// traceBuild is a build workload's traced run. It times CLI builds, then
// alternates untraced and traced in-process replays of the same pipeline:
// the traced replays give the per-layer self times, the difference
// between traced and untraced replays is the tracing overhead, and the
// difference between the CLI and the untraced replay is time spent in
// CLI-only code (process start, flag parsing, exit).
func traceBuild(e *env, b buildSpec) error {
	in := filepath.Join(e.work, "input.csv")
	if _, err := buildInputs(e, b, in); err != nil {
		return err
	}
	bl, err := newBuilder(e, b, in)
	if err != nil {
		return err
	}
	if _, ok := bl.build(false); !ok {
		return fmt.Errorf("warm-up build failed")
	}
	var cli []float64
	start := time.Now()
	for len(cli) < 3 || time.Since(start) < e.seconds/3 {
		r, _ := bl.build(true)
		cli = append(cli, durMs(r.wall))
	}

	t := &tracer{}
	probe := newRuntimeProbe()
	out := filepath.Join(e.work, "replay.csv")
	var plain, traced []float64
	layers := map[string][]float64{}
	var last replay
	var gcMs float64
	// At least three replays of each kind, failed ones included, so the
	// loop ends whatever happens.
	for i := 0; i < 6 || time.Since(start) < e.seconds; i++ {
		on := i%2 == 1
		t.on.Store(on)
		runtime.GC()
		gc0 := probe.gcMs()
		first := len(t.snapshot())
		rp, err := runReplay(b, in, out, bl.tmp, t, probe)
		e.attempted++
		if err != nil {
			e.fail("replay: %v", err)
			continue
		}
		if !bl.leaks() || !bl.verify(out) {
			continue
		}
		if !on {
			plain = append(plain, durMs(rp.wall))
			continue
		}
		gcMs += probe.gcMs() - gc0
		traced = append(traced, durMs(rp.wall))
		spans := t.snapshot()
		self := selfTimes(spans)
		sums := map[string]float64{}
		var total float64
		for j := first; j < len(spans); j++ {
			sums[spans[j].Name] += durMs(self[j])
			total += durMs(self[j])
		}
		sums["total"] = total
		for name, v := range sums {
			layers[name] = append(layers[name], v)
		}
		last = rp
	}
	t.on.Store(false)
	if err := bl.checkOracle(); err != nil {
		return err
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced replay completed")
	}
	if err := writeSpans(e.spans, t.snapshot()); err != nil {
		return err
	}

	cliMs, plainMs := median(cli), median(plain)
	engine := median(layers["sketch"]) + median(layers["mr"])
	e.set("load.parse_ms", "ms", median(layers["load"]))
	e.set("load.rows", "count", float64(last.rows))
	e.set("sketch.round_ms", "ms", median(layers["sketch"]))
	e.set("sketch.bytes", "B", float64(last.stats.SketchBytes))
	e.set("sketch.skewed_groups", "count", float64(last.stats.SkewedGroups))
	e.set("sketch.sample_tuples", "count", float64(last.stats.SampleTuples))
	e.set("mr.round_ms", "ms", median(layers["mr"]))
	e.set("compute.other_ms", "ms", median(layers["compute"]))
	e.set("cube.collect_ms", "ms", median(layers["cube"]))
	e.set("cube.groups", "count", float64(last.groups))
	e.set("output.write_ms", "ms", median(layers["output"]))
	e.set("output.bytes", "B", float64(last.bytes))
	setRoundMetrics(e, last.rounds)
	e.set("runtime.gc_cpu_ms", "ms", gcMs/float64(len(traced)))
	e.set("runtime.heap_peak_mb", "MB", probe.heapPeak)
	e.set("trace.layers_ms", "ms", median(layers["total"]))
	e.set("trace.overhead_ms", "ms", median(traced)-plainMs)
	e.set("cli.wall_ms", "ms", cliMs)
	e.set("cli.other_ms", "ms", cliMs-plainMs)
	e.set("engine.share_pct", "%", 100*engine/cliMs)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: CLI %.0f ms (n=%d) = replay %.0f ms (n=%d; traced %.0f ms, n=%d) + CLI-only %.0f ms; engine rounds %.0f ms = %.0f%% of the CLI build\n",
		b.name, cliMs, len(cli), plainMs, len(plain), median(traced), len(traced), cliMs-plainMs, engine, 100*engine/cliMs)
	return nil
}

// setRoundMetrics reports the engine's counters for the cube rounds (every
// round but the SP-Sketch round).
func setRoundMetrics(e *env, rounds []roundDoc) {
	var tasks, retries, shufRec, shufBytes, spills, spillBytes, diskBytes, passes, stallNs, hits, misses int64
	var mapS, redS float64
	for _, r := range rounds {
		tasks += int64(r.MappersExecuted + r.ReducersExecuted)
		retries += r.Retries
		if r.Job == "sp-sketch" {
			continue
		}
		shufRec += r.ShuffleRecords
		shufBytes += r.ShuffleBytes
		spills += r.Spills
		spillBytes += r.SpillBytes
		diskBytes += r.CompressedSpillBytes
		passes += r.MergePasses
		stallNs += r.SpillWriteStallNs
		hits += r.PrefetchHits
		misses += r.PrefetchMisses
		for _, t := range r.Mappers {
			mapS += t.WallSeconds
		}
		for _, t := range r.Reducers {
			redS += t.WallSeconds
		}
	}
	e.set("mr.map_ms", "ms", mapS*1e3)
	e.set("mr.reduce_ms", "ms", redS*1e3)
	e.set("mr.tasks", "count", float64(tasks))
	e.set("mr.retries", "count", float64(retries))
	e.set("mr.shuffle_records", "count", float64(shufRec))
	e.set("mr.shuffle_bytes", "B", float64(shufBytes))
	e.set("mr.spills", "count", float64(spills))
	e.set("mr.spill_bytes", "B", float64(spillBytes))
	e.set("mr.spill_disk_bytes", "B", float64(diskBytes))
	e.set("mr.merge_passes", "count", float64(passes))
	e.set("mr.spill_stall_ms", "ms", float64(stallNs)/1e6)
	e.set("mr.prefetch_hits", "count", float64(hits))
	e.set("mr.prefetch_misses", "count", float64(misses))
}
