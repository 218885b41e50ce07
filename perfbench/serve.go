package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The serve-ingest workload: spserve over a wiki cube, an open-loop query
// stream at a fixed rate below saturation, and an append batch POSTed to
// /v1/ingest at a fixed interval alongside the queries.
const (
	serveRows   = 50_000 // base relation rows
	batchRows   = serveRows / 100
	maxBatches  = 64          // batches generated; a run ingests seconds/ingestEvery of them
	ingestEvery = time.Second // one batch per interval, the first half an interval in
	// queryRate is half of spserve's saturation rate under this stream on
	// the 2-vCPU host the benchmark was built on: offered 10000 queries/s
	// over nproc connections, it answered 5280-6160/s (three runs, median
	// 5660; see README), so the server keeps headroom under host noise.
	queryRate = 2800
	// The mix, key skew and k are cmd/sploadgen's defaults:
	// point=8,slice=1,rollup=1,topk=1, zipf exponent 1.2, k 5.
	zipfS = 1.2
	topK  = 5
	// batchShare: from the second interval on, one query in batchShare names
	// a row of an already posted ingest batch, so ingested values are queried.
	batchShare = 10
	launches   = 3 // spserve launches per run; setup_s is their median
)

// serveArgs is spserve's command line.
func serveArgs(in, addrFile string) []string {
	return []string{"-in", in, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-algo", "sp-cube", "-agg", "sum", "-k", "20", "-p", strconv.Itoa(par)}
}

// serveInputs is the generated relation, split into the served base and
// the append batches, with the oracle over all of them. The oracle is
// built after the spserve launches: a child forked from this process
// starts with this process's resident memory counted in its peak RSS.
type serveInputs struct {
	header   []string
	base     []row
	batches  [][]row
	basePath string
	apex     float64 // the base relation's measure total
	oracle   *versions
}

func newServeInputs(e *env) (*serveInputs, error) {
	all := filepath.Join(e.work, "all.csv")
	if _, err := runProc(e.work, time.Minute, filepath.Join(e.bin, "gendata"), "-dataset", "wiki",
		"-n", strconv.Itoa(serveRows+maxBatches*batchRows), "-seed", strconv.FormatInt(e.seed, 10), "-o", all); err != nil {
		return nil, err
	}
	header, rows, err := readRows(all)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{header: header, base: rows[:serveRows], basePath: filepath.Join(e.work, "base.csv")}
	for i := serveRows; i < len(rows); i += batchRows {
		in.batches = append(in.batches, rows[i:i+batchRows])
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	_ = cw.Write(header)
	for _, r := range in.base {
		in.apex += float64(r.measure)
		_ = cw.Write(append(append([]string(nil), r.dims...), strconv.FormatInt(r.measure, 10)))
	}
	cw.Flush()
	if err := os.WriteFile(in.basePath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return in, nil
}

// genQueries draws a query stream from the seed: zipf-ranked rows of the
// base relation, and from the second ingest interval on some rows of the
// first nb batches, projected onto sploadgen's point-heavy mix of the four
// ops. The first query of every second is the fault probe.
//
// after[i] > 0 says query i names a row of batch after[i]-1. Such a query is
// due at least half an interval after that batch is posted, and drive holds
// it until the batch is acknowledged: spserve resolves a value its
// dictionary does not know yet as a literal dictionary code (see
// faultProbe), so a query for a value sent before its batch is in would get
// a wrong answer on some seeds and not others.
func genQueries(in *serveInputs, seed int64, n, nb int) (qs []query, after []int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	pool := append([]row(nil), in.base...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	d := len(in.header) - 1
	// Slices fix one dimension and leave day or agent open; top-k runs on
	// the cuboids without the near-distinct page dimension.
	sliceShapes := [][2]int{{0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}}
	topkMasks := []int{1, 4, 8, 5, 9, 12}
	qs, after = make([]query, n), make([]int, n)
	for i := range qs {
		r := pool[zipf.Uint64()]
		// Batches posted at least half an interval before the query is due.
		posted := int(time.Duration(i) * time.Second / queryRate / ingestEvery)
		if posted > nb {
			posted = nb
		}
		if posted > 0 && rng.Intn(batchShare) == 0 {
			j := rng.Intn(posted)
			r = in.batches[j][rng.Intn(len(in.batches[j]))]
			after[i] = j + 1
		}
		g := make([]string, d)
		for j := range g {
			g[j] = "*"
		}
		switch u := rng.Intn(11); {
		case i%queryRate == 0:
			qs[i], after[i] = faultProbe(d), 0
		case u < 8:
			fill(g, r, rng.Intn(1<<d))
			qs[i] = query{Op: "point", Group: g}
		case u < 9:
			s := sliceShapes[rng.Intn(len(sliceShapes))]
			g[s[0]], g[s[1]] = r.dims[s[0]], "?"
			qs[i] = query{Op: "slice", Group: g}
		case u < 10:
			fill(g, r, 1+rng.Intn(1<<d-1))
			qs[i] = query{Op: "rollup", Group: g}
		default:
			m := topkMasks[rng.Intn(len(topkMasks))]
			for j := range g {
				if m&(1<<j) != 0 {
					g[j] = "?"
				}
			}
			qs[i] = query{Op: "topk", Group: g, K: topK}
		}
	}
	return qs, after
}

// faultProbe is a point query for page "500", a value the wiki generator
// never produces (its pages are 101-109 and 1000 up), whatever the seed.
// The right answer is "not found". spserve instead resolves a value missing
// from its dictionary as a literal dictionary code (serve.Store.DimCode),
// so it answers with the value of whichever page got code 500: the probe
// fails on every run, and is counted as a failed operation, not as a wrong
// output, until that fault is mended. It is the run's one operation that
// fails by design: fixed, so every run fails the same share of operations.
func faultProbe(d int) query {
	g := make([]string, d)
	for j := range g {
		g[j] = "*"
	}
	g[1] = "500"
	return query{Op: "point", Group: g}
}

func isFaultProbe(q query) bool {
	return q.Op == "point" && len(q.Group) > 1 && q.Group[1] == "500"
}

// fill copies r's values for the dimensions in mask into g.
func fill(g []string, r row, mask int) {
	for j := range g {
		if mask&(1<<j) != 0 {
			g[j] = r.dims[j]
		}
	}
}

// sent is one query as the load generator saw it.
type sent struct {
	due, start, done time.Time
	ans              answer
	err              error
}

// ingest is one POSTed batch: sent at post, acknowledged at ack.
type ingest struct {
	post, ack time.Time
	mode      string
	err       error
}

// client talks to a served cube over at most procs() connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: procs(), MaxIdleConnsPerHost: procs()}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends a JSON body and decodes a JSON answer; any status but 200 is
// an error.
func (c *client) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// queryWire is the query request's JSON form.
type queryWire struct {
	Op    string   `json:"op"`
	Group []string `json:"group"`
	K     int      `json:"k,omitempty"`
}

func (c *client) query(q query) (answer, error) {
	var resp struct {
		answer
		Error string
	}
	err := c.post("/v1/query", queryWire{q.Op, q.Group, q.K}, &resp)
	if err == nil && resp.Error != "" {
		err = errors.New(resp.Error)
	}
	return resp.answer, err
}

func (c *client) ingest(batch []row) (mode string, err error) {
	type wireRow struct {
		Dims    []string `json:"dims"`
		Measure int64    `json:"measure"`
	}
	body := struct {
		Append []wireRow `json:"append"`
	}{}
	for _, r := range batch {
		body.Append = append(body.Append, wireRow{r.dims, r.measure})
	}
	var resp struct {
		Mode  string `json:"mode"`
		Error string `json:"error"`
	}
	err = c.post("/v1/ingest", body, &resp)
	if err == nil && resp.Error != "" {
		err = errors.New(resp.Error)
	}
	return resp.Mode, err
}

// drive runs the timed window: every query at its due time (open loop,
// queryRate per second, answered by procs() workers), a query that names
// an ingested row not before its batch is acknowledged, and every ingest at
// its interval. It returns when every query and ingest has finished.
func drive(c *client, qs []query, after []int, batches [][]row, onHalf func()) ([]sent, []ingest) {
	out := make([]sent, len(qs))
	ings := make([]ingest, len(batches))
	acked := make([]chan struct{}, len(batches))
	for j := range acked {
		acked[j] = make(chan struct{})
	}
	jobs := make(chan int, len(qs)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < procs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i].start = time.Now()
				out[i].ans, out[i].err = c.query(qs[i])
				out[i].done = time.Now()
			}
		}()
	}
	// Ingests use a connection of their own, beside the query workers'.
	ic := newClient(strings.TrimPrefix(c.base, "http://"))
	defer ic.close()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j, b := range batches {
			time.Sleep(time.Until(start.Add(time.Duration(j)*ingestEvery + ingestEvery/2)))
			ings[j].post = time.Now()
			ings[j].mode, ings[j].err = ic.ingest(b)
			ings[j].ack = time.Now()
			close(acked[j])
		}
	}()
	half := len(qs) / 2
	for i := range qs {
		if i == half && onHalf != nil {
			onHalf()
		}
		due := start.Add(time.Duration(i) * time.Second / queryRate)
		time.Sleep(time.Until(due))
		if after[i] > 0 {
			<-acked[after[i]-1]
		}
		out[i].due = due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, ings
}

// checkAnswers verifies every answer against the versions it may legally
// come from: any version from the last batch acknowledged before the query
// was sent to the last batch posted before its answer arrived. It returns
// the latencies (ms from the due time) and the generator's lateness.
func checkAnswers(e *env, o *versions, qs []query, out []sent, ings []ingest) (lat, late []float64) {
	for i, s := range out {
		e.attempted++
		lat = append(lat, durMs(s.done.Sub(s.due)))
		late = append(late, durMs(s.start.Sub(s.due)))
		if s.err != nil {
			e.fail("query %d (%s %q): %v", i, qs[i].Op, qs[i].Group, s.err)
			continue
		}
		lo, hi := 0, 0
		for j, in := range ings {
			if in.err != nil {
				continue
			}
			if in.ack.Before(s.start) {
				lo = j + 1
			}
			if in.post.Before(s.done) {
				hi = j + 1
			}
		}
		var err error
		for v := lo; v <= hi; v++ {
			if err = o.check(qs[i], s.ans, v); err == nil {
				break
			}
		}
		switch {
		case err != nil && isFaultProbe(qs[i]):
			e.fail("fault probe %q: %v", qs[i].Group, err)
		case err != nil:
			e.mismatch("query %d (%s %q) matches no version in [%d, %d]: %v", i, qs[i].Op, qs[i].Group, lo, hi, err)
		}
	}
	for j, in := range ings {
		e.attempted++
		if in.err != nil {
			e.fail("ingest %d: %v", j, in.err)
		}
	}
	return lat, late
}

// server is one running spserve.
type server struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	c      *client
}

// launch is how long spserve took to answer its first query: wall time
// from exec, and the CPU time (user+system) it spent until then.
type launch struct{ wall, cpu time.Duration }

// launchServer starts spserve and returns once it has answered a query.
func launchServer(e *env, in *serveInputs, n int) (*server, launch, error) {
	addrFile := filepath.Join(e.work, fmt.Sprintf("addr-%d", n))
	cmd := exec.Command(filepath.Join(e.bin, "spserve"), serveArgs(in.basePath, addrFile)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, launch{}, err
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	apex := make([]string, len(in.header)-1)
	for i := range apex {
		apex[i] = "*"
	}
	for {
		select {
		case err := <-s.exited:
			return nil, launch{}, fmt.Errorf("spserve exited before answering: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			_ = cmd.Process.Kill()
			<-s.exited
			return nil, launch{}, errors.New("spserve did not answer within a minute")
		}
		if s.c == nil {
			addr, err := os.ReadFile(addrFile)
			if err != nil || !strings.Contains(string(addr), ":") {
				continue
			}
			s.c = newClient(string(addr))
		}
		ans, err := s.c.query(query{Op: "point", Group: apex})
		if err != nil {
			continue
		}
		took := launch{wall: time.Since(start)}
		cpuMs, err := procCPUms(cmd.Process.Pid)
		if err != nil {
			s.stop(e)
			return nil, launch{}, err
		}
		took.cpu = time.Duration(cpuMs * 1e6)
		if !ans.Found || ans.Value != in.apex {
			e.mismatch("first answer: apex = %v, want %v", ans.Value, in.apex)
		}
		return s, took, nil
	}
}

// stop interrupts spserve and checks that it exits 0; it returns the
// process's peak RSS in MB.
func (s *server) stop(e *env) float64 {
	s.c.close()
	e.attempted++
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	st := s.cmd.ProcessState
	if st.ExitCode() != 0 {
		e.fail("spserve did not exit 0 after SIGINT: %v", st)
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// batchesFor is the run's ingest batches: one per interval of the window.
func batchesFor(e *env, in *serveInputs) [][]row {
	n := int(e.seconds / ingestEvery)
	if n > len(in.batches) {
		n = len(in.batches)
	}
	return in.batches[:n]
}

// queriesFor is the run's query stream: queryRate per second of the window,
// over the run's batches.
func queriesFor(e *env, in *serveInputs) ([]query, []int) {
	return genQueries(in, e.seed, int(e.seconds/time.Second)*queryRate, len(batchesFor(e, in)))
}

// warmUp sends untimed queries (drawn from another seed, base rows only) so
// connections and caches are live before the window opens.
func warmUp(e *env, in *serveInputs, c *client) {
	qs, _ := genQueries(in, e.seed+1, queryRate/10, 0)
	for _, q := range qs {
		_, _ = c.query(q)
	}
}

// freshness lists each ingest's POST-to-acknowledgement time in ms.
func freshness(ings []ingest) []float64 {
	var out []float64
	for _, in := range ings {
		if in.err == nil {
			out = append(out, durMs(in.ack.Sub(in.post)))
		}
	}
	return out
}

// runServe is serve-ingest's end-to-end run.
func runServe(e *env) error {
	in, err := newServeInputs(e)
	if err != nil {
		return err
	}
	// Set-up is spserve's CPU time to its first answer: on a shared host
	// its wall time swings with CPU steal far more than with its work.
	var setups, walls []float64
	var srv *server
	for i := 0; i < launches; i++ {
		s, took, err := launchServer(e, in, i)
		if err != nil {
			return err
		}
		setups = append(setups, took.cpu.Seconds())
		walls = append(walls, took.wall.Seconds())
		if i < launches-1 {
			s.stop(e)
		} else {
			srv = s
		}
	}
	in.oracle = newVersions(in.base, in.batches, len(in.header)-1, "sum")
	warmUp(e, in, srv.c)
	qs, after := queriesFor(e, in)
	// op_cpu_ms and peak_rss_mb are medians over the window's seconds, as a
	// build workload's are over its builds: a burst of host steal, which
	// inflates CPU time too, or one garbage collection that lines up with an
	// ingest moves a few seconds and not the median.
	stop := sampleProc(srv.cmd.Process.Pid)
	out, ings := drive(srv.c, qs, after, batchesFor(e, in), nil)
	secs, err := stop()
	lifeRSS := srv.stop(e)
	if err != nil {
		return fmt.Errorf("sampling spserve: %v", err)
	}
	var cpus, rss []float64
	for _, s := range secs {
		cpus, rss = append(cpus, s.cpuMs), append(rss, s.peakRSSmb)
	}
	lat, late := checkAnswers(e, in.oracle, qs, out, ings)
	fresh := freshness(ings)
	rebuilds := 0
	for _, in := range ings {
		if in.mode == "rebuild" {
			rebuilds++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-ingest: %d queries at %d/s: p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; generator late p99 %.3f ms; %d ingests (%d rebuilds): freshness p50 %.1f ms; spserve %.0f ms CPU/s, %.1f MB peak per second (%.1f MB over its life); set-up %.3f s CPU, %.3f s wall\n",
		len(qs), queryRate, median(lat), quantile(lat, 0.9), quantile(lat, 0.99), quantile(late, 0.99), len(ings), rebuilds, median(fresh),
		median(cpus), median(rss), lifeRSS, median(setups), median(walls))
	e.set("setup_s", "s", median(setups))
	e.set("op_cpu_ms", "ms", median(cpus)/queryRate)
	e.set("peak_rss_mb", "MB", median(rss))
	return nil
}
