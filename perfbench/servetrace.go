package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/delta"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

// ops are the serving layer's query kinds, in wire spelling.
var ops = []string{"point", "slice", "rollup", "topk"}

// traceServe is serve-ingest's traced run. It assembles spserve's serving
// stack in process (the same layers, configured as spserve configures
// them), with spans around the calls into each layer, and drives it with
// the same stream over HTTP. Tracing is off for the first half of the
// window and on for the second; the difference in median latency is the
// tracing overhead. One spserve launch gives the CLI's set-up time, to
// reconcile the in-process set-up spans against.
func traceServe(e *env) error {
	in, err := newServeInputs(e)
	if err != nil {
		return err
	}
	srv, cliSetup, err := launchServer(e, in, 0)
	if err != nil {
		return err
	}
	srv.stop(e)
	in.oracle = newVersions(in.base, in.batches, len(in.header)-1, "sum")

	runtime.GC() // start the set-up on a clean heap, as spserve does
	t := &tracer{}
	t.on.Store(true)
	probe := newRuntimeProbe()
	rs := newRoundSpans(t)
	setupStart := time.Now()
	root := t.begin("setup", -1)
	load := t.begin("load", root)
	rel, err := loadRelation(in.basePath)
	t.end(load)
	if err != nil {
		return err
	}
	build := t.begin("build", root)
	rs.parent.Store(int64(build))
	maint, err := delta.New(rel, delta.Config{Algorithm: "sp-cube", Agg: agg.Sum, Workers: 20,
		Parallelism: par, Seed: 1, Tracer: rs})
	t.end(build)
	if err != nil {
		return err
	}
	index := t.begin("index", root)
	store, err := serve.Build(maint.Relation(), maint.Result())
	t.end(index)
	t.end(root)
	if err != nil {
		return err
	}
	setupMs := durMs(time.Since(setupStart))
	probe.read()

	// spserve's defaults.
	counters := &serve.Counters{}
	svc := serve.NewService(store, serve.Config{CacheEntries: 4096, BatchWindow: 100 * time.Microsecond,
		MaxBatch: 128, Counters: counters})
	defer svc.Close()
	ing := &tracedIngest{t: t, rs: rs, svc: svc, maint: maint}
	mux := http.NewServeMux()
	mux.Handle("/", tracedHandler(t, svc, counters))
	mux.Handle("/v1/ingest", ing)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient(ln.Addr().String())
	warmUp(e, in, c)
	t.on.Store(false)
	qs, after := queriesFor(e, in)
	out, ings := drive(c, qs, after, batchesFor(e, in), func() { t.on.Store(true) })
	t.on.Store(false)
	c.close()
	_ = hs.Close()
	<-served
	probe.read()
	lat, late := checkAnswers(e, in.oracle, qs, out, ings)
	spans := t.snapshot()
	if err := writeSpans(e.spans, spans); err != nil {
		return err
	}

	self := selfTimes(spans)
	byName := map[string][]float64{}
	// The set-up spans are the first ones: root, load, build and its
	// rounds, index.
	var sketchMs, mrMs, setupSelf float64
	for i, s := range spans {
		switch {
		case s.Parent == build && s.Name == "sketch":
			sketchMs += durMs(s.dur())
		case s.Parent == build && s.Name == "mr":
			mrMs += durMs(s.dur())
		}
		if i <= index {
			setupSelf += durMs(self[i])
		}
		byName[s.Name] = append(byName[s.Name], durMs(s.dur()))
	}
	e.set("load.parse_ms", "ms", durMs(self[load]))
	e.set("load.rows", "count", float64(rel.N()))
	e.set("sketch.round_ms", "ms", sketchMs)
	e.set("mr.round_ms", "ms", mrMs)
	// delta.New gives no event between collecting its two cubes, building
	// the exact sketch and its own bookkeeping, so its time outside the MR
	// rounds is one delta figure; cube.collect_ms stays a build-only metric.
	e.set("delta.setup_ms", "ms", durMs(self[build]))
	e.set("cube.groups", "count", float64(store.Groups()))
	e.set("serve.index_ms", "ms", median(byName["index"]))
	for _, op := range ops {
		e.set("serve.http_us."+op, "us", 1e3*median(byName["http."+op]))
		e.set("serve.service_us."+op, "us", 1e3*median(byName["service."+op]))
	}
	setProbeTimes(e, svc.Store(), qs)
	st := counters.Snapshot()
	if st.Batches > 0 && st.BatchedQueries > 0 {
		e.set("serve.batches", "count", float64(st.Batches))
		e.set("serve.queries_per_batch", "ratio", float64(st.BatchedQueries)/float64(st.Batches))
		e.set("serve.probes_per_query", "ratio", float64(st.Probes)/float64(st.BatchedQueries))
	}
	if lookups := st.CacheHits + st.FlightsShared + st.CacheMisses; lookups > 0 {
		e.set("serve.cache_hit_ratio", "ratio", float64(st.CacheHits+st.FlightsShared)/float64(lookups))
	}
	var untraced, traced []float64
	for i := range lat {
		if i < len(lat)/2 {
			untraced = append(untraced, lat[i])
		} else {
			traced = append(traced, lat[i])
		}
	}
	e.set("serve.query_p50_ms", "ms", median(lat))
	e.set("serve.query_p99_ms", "ms", quantile(lat, 0.99))
	e.set("serve.late_p99_ms", "ms", quantile(late, 0.99))
	e.set("delta.apply_ms", "ms", median(byName["delta"]))
	e.set("serve.patch_ms", "ms", median(byName["patch"]))
	e.set("serve.swap_ms", "ms", median(byName["swap"]))
	e.set("delta.freshness_ms", "ms", median(freshness(ings)))
	nDelta, nRebuild, changes := ing.counts()
	e.set("delta.cycles_delta", "count", float64(nDelta))
	e.set("delta.cycles_rebuild", "count", float64(nRebuild))
	if nDelta > 0 {
		e.set("delta.changes", "count", float64(changes)/float64(nDelta))
	}
	e.set("runtime.gc_cpu_ms", "ms", probe.gcMs())
	e.set("runtime.heap_peak_mb", "MB", probe.heapPeak)
	e.set("trace.layers_ms", "ms", setupSelf)
	e.set("trace.overhead_ms", "ms", median(traced)-median(untraced))
	cliMs := durMs(cliSetup.wall)
	e.set("cli.wall_ms", "ms", cliMs)
	e.set("cli.other_ms", "ms", cliMs-setupMs)
	e.set("engine.share_pct", "%", 100*(sketchMs+mrMs)/cliMs)
	fmt.Fprintf(os.Stderr, "perfbench: serve-ingest traced: spserve set-up %.0f ms = in-process set-up %.0f ms (load %.0f, sketch %.0f, mr %.0f, delta.New outside its rounds %.0f, index %.0f) + CLI-only %.0f ms; query p50 untraced %.3f ms (n=%d), traced %.3f ms (n=%d)\n",
		cliMs, setupMs, durMs(self[load]), sketchMs, mrMs, durMs(self[build]), median(byName["index"]), cliMs-setupMs,
		median(untraced), len(untraced), median(traced), len(traced))
	return nil
}

// loadRelation reads the CSV the way spserve does, into a relation.
func loadRelation(path string) (*relation.Relation, error) {
	var rel *relation.Relation
	err := scanCSV(path, func(h []string) { rel = relation.New(h[:len(h)-1], h[len(h)-1]) },
		func(dims []string, m int64) { rel.AppendStrings(dims, m) })
	return rel, err
}

// tracedHandler is the serving HTTP API with an "http.<op>" span around
// the handler and a "service.<op>" span around each call into the service.
func tracedHandler(t *tracer, svc *serve.Batched, counters *serve.Counters) http.Handler {
	plain := serve.NewHandler(svc, svc, counters)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/query" {
			plain.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var q struct {
			Op string `json:"op"`
		}
		_ = json.Unmarshal(body, &q)
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := t.begin("http."+q.Op, -1)
		serve.NewHandler(timedService{svc, t, id}, svc, counters).ServeHTTP(w, r)
		t.end(id)
	})
}

// timedService spans each query into the batched service.
type timedService struct {
	*serve.Batched
	t      *tracer
	parent int
}

func (s timedService) Query(q serve.Query) (serve.Result, error) {
	id := s.t.begin("service."+q.Op.String(), s.parent)
	res, err := s.Batched.Query(q)
	s.t.end(id)
	return res, err
}

// tracedIngest is spserve's /v1/ingest handler with spans: "delta" around
// the maintenance cycle, "patch" around building the next snapshot, "swap"
// around publishing it.
type tracedIngest struct {
	t     *tracer
	rs    *roundSpans
	svc   *serve.Batched
	maint *delta.Maintainer

	mu                       sync.Mutex
	nDelta, nRebuild, nChans int
}

func (h *tracedIngest) counts() (nDelta, nRebuild, changes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nDelta, h.nRebuild, h.nChans
}

func (h *tracedIngest) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Append []struct {
			Dims    []string `json:"dims"`
			Measure int64    `json:"measure"`
		} `json:"append"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rows := make([]delta.Row, len(req.Append))
	for i, a := range req.Append {
		rows[i] = delta.Row{Dims: a.Dims, Measure: a.Measure}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	root := h.t.begin("ingest", -1)
	sp := h.t.begin("delta", root)
	h.rs.parent.Store(int64(sp))
	rnd, err := h.maint.ApplyStrings(rows, nil)
	h.t.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sp = h.t.begin("patch", root)
	var next *serve.Store
	if rnd.Mode == "delta" {
		h.nDelta++
		h.nChans += len(rnd.Changes)
		p := serve.NewPatch()
		for _, ch := range rnd.Changes {
			if ch.Delete {
				err = p.Delete(ch.Key)
			} else {
				err = p.Set(ch.Key, ch.Value)
			}
			if err != nil {
				break
			}
		}
		if err == nil {
			next, err = h.svc.Store().ApplyPatch(p, h.maint.Relation().Dict)
		}
	} else {
		h.nRebuild++
		next, err = serve.Build(h.maint.Relation(), h.maint.Result())
	}
	h.t.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sp = h.t.begin("swap", root)
	h.svc.Swap(next)
	h.t.end(sp)
	h.t.end(root)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"mode": rnd.Mode})
}

// setProbeTimes times Store.Execute, the index probe behind every query,
// by replaying the run's queries against the final snapshot.
func setProbeTimes(e *env, store *serve.Store, qs []query) {
	times := map[string][]float64{}
	for _, q := range qs {
		sq, ok := toServeQuery(store, q)
		if !ok {
			continue
		}
		start := time.Now()
		_, err := store.Execute(sq)
		took := time.Since(start)
		if err == nil {
			times[q.Op] = append(times[q.Op], float64(took)/1e3)
		}
	}
	for _, op := range ops {
		e.set("serve.probe_us."+op, "us", median(times[op]))
	}
}

// toServeQuery encodes a display-form query against a store's dictionary.
func toServeQuery(store *serve.Store, q query) (serve.Query, bool) {
	op, err := serve.OpByName(q.Op)
	if err != nil {
		return serve.Query{}, false
	}
	sq := serve.Query{Op: op, K: q.K}
	for i, g := range q.Group {
		if g == "*" {
			continue
		}
		sq.Mask |= lattice.Mask(1) << uint(i)
		if g == "?" {
			continue
		}
		code, ok := store.DimCode(i, g)
		if !ok {
			return serve.Query{}, false
		}
		sq.Packed = append(sq.Packed, code)
	}
	return sq, true
}
