package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/endpoint"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdb/wal"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/update"
	"ontoaccess/internal/workload"
)

// The traced run gives the per-layer split. The program is not
// instrumented: spans are recorded here, around calls into each
// layer's public functions, on a mediator built the way ontoaccessd
// builds it with default flags and served over a loopback listener.
//
// One driver goroutine sends the workload's requests (the two
// connections' streams, interleaved), first for a quarter of the run's
// seconds untraced, then for another quarter traced:
//
//   - a read is timed as the real HTTP round trip (http.request; the
//     handler call inside it is endpoint.serve), then re-run
//     idempotently through sparql.ParseQuery (sparql.parse),
//     Mediator.QueryStream into a sink that times the result writers
//     (core.query with its child sparql.serialize), and sqlexec.Select
//     on the SQL the mediator reports, inside db.View (sqlexec.select);
//   - a write cannot run twice, so writes alternate between HTTP
//     (http.request) and a direct Mediator.ExecuteString
//     (core.update); update.Parse (update.parse) is re-run beside both.
//
// The re-run core.query always hits the parse memo the HTTP call
// filled, so the parse span counts toward core time only for requests
// whose HTTP call missed the memo.

// span is one timed call. Times are nanoseconds since the run began;
// parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Rows   int    `json:"rows,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// reserve adds a span whose end is set later by finish, so children
// can name it as their parent while it is open.
func (t *tracer) reserve(name string, req int) int {
	return t.add(span{Name: name, Start: t.now(), Parent: -1, Req: req})
}

// finish ends span i and returns its duration.
func (t *tracer) finish(i int) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
	return t.spans[i].dur()
}

// annotate records the rows and allocations of span i.
func (t *tracer) annotate(i, rows int, allocs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Rows, t.spans[i].Allocs = rows, allocs
}

const (
	reqHeader  = "X-Perfbench-Request"
	spanHeader = "X-Perfbench-Span"
)

// traceSink is a core.StreamSink writing the endpoint's result formats
// to a discarding buffer while timing the writer calls.
type traceSink struct {
	bw       *bufio.Writer
	wantJSON bool
	jw       *sparql.ResultsJSONWriter
	tw       *sparql.TableWriter
	rows     int
	busy     time.Duration
	first    time.Time
}

func (k *traceSink) timed(fn func() error) error {
	t0 := time.Now()
	if k.first.IsZero() {
		k.first = t0
	}
	err := fn()
	k.busy += time.Since(t0)
	return err
}

func (k *traceSink) Head(vars []string) error {
	return k.timed(func() error {
		if k.wantJSON {
			jw, err := sparql.NewResultsJSONWriter(k.bw, vars)
			k.jw = jw
			return err
		}
		k.tw = sparql.NewTableWriter(k.bw, vars)
		return nil
	})
}

func (k *traceSink) Solution(b sparql.Binding) error {
	k.rows++
	return k.timed(func() error {
		if k.jw != nil {
			return k.jw.WriteSolution(b)
		}
		return k.tw.WriteSolution(b)
	})
}

func (k *traceSink) Ask(v bool) error {
	return k.timed(func() error {
		if k.wantJSON {
			data, err := sparql.AskJSON(v)
			if err != nil {
				return err
			}
			_, err = k.bw.Write(data)
			return err
		}
		_, err := fmt.Fprintf(k.bw, "%v\n", v)
		return err
	})
}

func (k *traceSink) Graph(*rdf.Graph) error { return fmt.Errorf("perfbench: no CONSTRUCT queries") }

func (k *traceSink) close() error {
	return k.timed(func() error {
		if k.jw != nil {
			if err := k.jw.Close(); err != nil {
				return err
			}
		}
		if k.tw != nil {
			if err := k.tw.Close(); err != nil {
				return err
			}
		}
		return k.bw.Flush()
	})
}

// tracedServer is the in-process endpoint of the traced run.
type tracedServer struct {
	m    *core.Mediator
	hs   *http.Server
	base string
	done chan struct{}
}

func startTracedServer(dataDir string, tr *tracer) (*tracedServer, error) {
	m, _, err := workload.NewMediatorWithOptions(core.Options{}, rdb.Options{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	// ontoaccessd's flag defaults: -max-inflight 256, -request-timeout
	// 30s, -read-timeout 30s, -write-timeout 2m, -idle-timeout 2m.
	srv := endpoint.NewWithOptions(m, endpoint.Options{MaxInFlight: 256, RequestTimeout: 30 * time.Second})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.Atoi(r.Header.Get(reqHeader))
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			srv.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		srv.ServeHTTP(w, r)
		tr.add(span{Name: "endpoint.serve", Start: start, End: tr.now(), Parent: parent, Req: req})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &tracedServer{m: m, base: "http://" + ln.Addr().String(), done: make(chan struct{}),
		hs: &http.Server{Handler: handler, ReadTimeout: 30 * time.Second, WriteTimeout: 2 * time.Minute, IdleTimeout: 2 * time.Minute}}
	go func() {
		s.hs.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

func (s *tracedServer) close() error {
	s.hs.Close()
	<-s.done
	return s.m.Close()
}

// readSample is one traced read's layer times.
type readSample struct {
	http, serve, parse, query, serialize, sel time.Duration
	missed                                    bool
	rows, selRows                             int
	allocs                                    uint64
}

type writeSample struct {
	direct       bool
	http, serve  time.Duration
	update, pars time.Duration
	allocs       uint64
}

// tracedRun runs the workload in this process with tracing and returns
// the span-derived per-layer metrics plus the probes of the durability
// layer (rdb.open_s on a copy of the killed child's directory,
// wal.sync_us on a side directory).
func tracedRun(cfg config, work string, cr *childRun, out io.Writer) (map[string]metric, *tally, error) {
	tr := &tracer{t0: time.Now()}
	s, err := startTracedServer(filepath.Join(work, "traced"), tr)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	f := newFixture(cfg.seed, cfg.authors)
	if err := seed(s.base, f); err != nil {
		return nil, nil, err
	}
	var gens []*gen
	for c := 0; c < conns; c++ {
		gens = append(gens, newGen(cfg.workload, f, newModel(c, conns, len(f.authors)), cfg.seed))
	}
	total := &tally{}
	warmUp(s.base, gens, kinds(cfg.workload), total)

	l := &tracedLoop{tr: tr, m: s.m, c: newClient(s.base), traced: &tally{}}
	defer l.c.close()
	quarter := time.Duration(cfg.seconds) * time.Second / 4
	untraced := &tally{}
	for i, end := 0, time.Now().Add(quarter); time.Now().Before(end); i++ {
		untraced.run(l.c, gens[i%conns].next())
	}
	total.merge(untraced)
	writes := 0
	for i, end := 0, time.Now().Add(quarter); time.Now().Before(end); i++ {
		o := gens[i%conns].next()
		if o.kind.write() {
			writes++
		}
		if o.kind.write() && writes%2 == 0 {
			err = l.direct(&o, i+1)
		} else {
			err = l.http(&o, i+1)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	total.merge(l.traced)
	if err := writeSpans(filepath.Join(resultsDir(cfg.root), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)), tr.spans); err != nil {
		return nil, nil, err
	}

	metrics := layerMetrics(l.reads, l.writes, untraced, out)
	recordBytes := 0.0
	if l.walRecords > 0 {
		recordBytes = float64(l.walBytes) / float64(l.walRecords)
	}
	probes, err := durabilityProbes(cr, work, recordBytes)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probes {
		metrics[k] = v
	}
	return metrics, total, nil
}

// tracedLoop is the traced half of the traced run.
type tracedLoop struct {
	tr         *tracer
	m          *core.Mediator
	c          *client
	traced     *tally
	reads      []readSample
	writes     []writeSample
	ms0, ms1   runtime.MemStats
	walBytes   int64
	walRecords uint64
}

// http sends o through the endpoint, then re-runs it layer by layer.
// A wrong answer is recorded as a failure; only a failing re-run is
// returned as an error.
func (l *tracedLoop) http(o *op, req int) error {
	misses := l.m.QueryParseCacheStats().Misses
	hi := l.tr.reserve("http.request", req)
	t0 := time.Now()
	status, body, err := l.c.sendTraced(o, req, hi)
	d := time.Since(t0)
	l.tr.finish(hi)
	rows, fail := outcome(o, status, body, err)
	l.traced.record(o, d, rows, fail)
	if fail != nil {
		return nil
	}
	serve := servedTime(l.tr, hi)
	if o.kind.write() {
		pd, err := l.parseUpdate(o, req)
		l.writes = append(l.writes, writeSample{http: d, serve: serve, pars: pd})
		return err
	}
	rs := readSample{http: d, serve: serve, missed: l.m.QueryParseCacheStats().Misses > misses}
	if err := traceRead(l.m, l.tr, req, o, &rs, &l.ms0, &l.ms1); err != nil {
		return err
	}
	l.reads = append(l.reads, rs)
	return nil
}

// direct runs write o through Mediator.ExecuteString.
func (l *tracedLoop) direct(o *op, req int) error {
	ds0 := l.m.DurabilityStats()
	runtime.ReadMemStats(&l.ms0)
	ui := l.tr.reserve("core.update", req)
	_, err := l.m.ExecuteString(o.text)
	d := l.tr.finish(ui)
	runtime.ReadMemStats(&l.ms1)
	// Nothing else writes, so the WAL growth is this write's record,
	// unless a background checkpoint rotated or pruned segments
	// meanwhile.
	if ds1 := l.m.DurabilityStats(); ds1.Checkpoints == ds0.Checkpoints && ds1.WALSegments == ds0.WALSegments &&
		ds1.WALRecords > ds0.WALRecords && ds1.WALBytes > ds0.WALBytes {
		l.walBytes += ds1.WALBytes - ds0.WALBytes
		l.walRecords += ds1.WALRecords - ds0.WALRecords
	}
	allocs := l.ms1.Mallocs - l.ms0.Mallocs
	l.tr.annotate(ui, 0, allocs)
	l.traced.attempted++
	if err != nil {
		l.traced.failed++
		l.traced.failures = append(l.traced.failures, fmt.Errorf("%s (direct): %w", kindNames[o.kind], err))
		return nil
	}
	o.ack()
	pd, err := l.parseUpdate(o, req)
	l.writes = append(l.writes, writeSample{direct: true, update: d, pars: pd, allocs: allocs})
	return err
}

// parseUpdate re-runs update.Parse on a write's text.
func (l *tracedLoop) parseUpdate(o *op, req int) (time.Duration, error) {
	ps := l.tr.reserve("update.parse", req)
	_, err := update.Parse(o.text)
	d := l.tr.finish(ps)
	if err != nil {
		return d, fmt.Errorf("update.Parse: %w", err)
	}
	return d, nil
}

// sendTraced is send with the request and parent-span ids in headers.
func (c *client) sendTraced(o *op, req, parent int) (int, []byte, error) {
	c.hdr = map[string]string{reqHeader: strconv.Itoa(req), spanHeader: strconv.Itoa(parent)}
	defer func() { c.hdr = nil }()
	return c.send(o)
}

// servedTime returns the endpoint.serve span under the given parent.
func servedTime(tr *tracer, parent int) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := len(tr.spans) - 1; i > parent; i-- {
		if tr.spans[i].Name == "endpoint.serve" && tr.spans[i].Parent == parent {
			return tr.spans[i].dur()
		}
	}
	return 0
}

// traceRead re-runs one read through the parser, the mediator and the
// executor, recording a span for each.
func traceRead(m *core.Mediator, tr *tracer, req int, o *op, rs *readSample, ms0, ms1 *runtime.MemStats) error {
	pi := tr.reserve("sparql.parse", req)
	_, err := sparql.ParseQuery(o.text)
	rs.parse = tr.finish(pi)
	if err != nil {
		return fmt.Errorf("sparql.ParseQuery: %w", err)
	}

	sink := &traceSink{bw: bufio.NewWriter(io.Discard), wantJSON: o.accept != ""}
	runtime.ReadMemStats(ms0)
	qi := tr.reserve("core.query", req)
	err = m.QueryStream(o.text, sink)
	if err == nil {
		err = sink.close()
	}
	rs.query = tr.finish(qi)
	runtime.ReadMemStats(ms1)
	if err != nil {
		return fmt.Errorf("Mediator.QueryStream: %w", err)
	}
	rs.rows, rs.serialize = sink.rows, sink.busy
	rs.allocs = ms1.Mallocs - ms0.Mallocs
	tr.annotate(qi, sink.rows, rs.allocs)
	if !sink.first.IsZero() {
		start := int64(sink.first.Sub(tr.t0))
		tr.add(span{Name: "sparql.serialize", Start: start, End: start + int64(sink.busy), Parent: qi, Req: req, Rows: sink.rows})
	}

	// The executor alone, on the SQL the mediator reports for the query.
	res, err := m.Query(o.text)
	if err != nil {
		return fmt.Errorf("Mediator.Query: %w", err)
	}
	if res.SQL == "" {
		return nil
	}
	stmt, err := sqlparser.ParseStatement(res.SQL)
	if err != nil {
		return fmt.Errorf("sqlparser.ParseStatement(%q): %w", res.SQL, err)
	}
	sel, ok := stmt.(sqlparser.Select)
	if !ok {
		return fmt.Errorf("reported SQL is not a SELECT: %q", res.SQL)
	}
	return m.DB().View(func(tx *rdb.Tx) error {
		si := tr.reserve("sqlexec.select", req)
		rset, err := sqlexec.Select(tx, sel)
		rs.sel = tr.finish(si)
		if err != nil {
			return fmt.Errorf("sqlexec.Select: %w", err)
		}
		rs.selRows = len(rset.Rows)
		tr.annotate(si, rs.selRows, 0)
		return nil
	})
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durPct(v []time.Duration, q float64) time.Duration {
	return time.Duration(percentile(v, q) * float64(time.Millisecond))
}

// layerMetrics derives the per-layer numbers from the traced samples
// and prints each layer's self time per read.
func layerMetrics(reads []readSample, writes []writeSample, untraced *tally, out io.Writer) map[string]metric {
	var endpointSelf, query, parse, sel, httpReads, coreUpd, updParse []time.Duration
	var rows, selRows, nDirect int
	var serialize, selTotal, unattributed time.Duration
	var readAllocs, writeAllocs uint64
	var self struct{ transport, endpoint, core, parse, serialize, sel, total time.Duration }
	for _, r := range reads {
		q := r.query
		if r.missed {
			q += r.parse
			self.parse += r.parse
		}
		query = append(query, q)
		endpointSelf = append(endpointSelf, r.http-q)
		parse = append(parse, r.parse)
		httpReads = append(httpReads, r.http)
		if r.selRows > 0 || r.sel > 0 {
			sel = append(sel, r.sel)
		}
		rows += r.rows
		selRows += r.selRows
		serialize += r.serialize
		selTotal += r.sel
		readAllocs += r.allocs
		unattributed += r.http - r.serve
		self.total += r.http
		self.transport += r.http - r.serve
		self.endpoint += r.serve - q
		self.core += max(0, r.query-r.serialize-r.sel)
		self.serialize += r.serialize
		self.sel += min(r.sel, r.query-r.serialize)
	}
	for _, w := range writes {
		updParse = append(updParse, w.pars)
		if w.direct {
			nDirect++
			coreUpd = append(coreUpd, w.update)
			writeAllocs += w.allocs
		} else {
			unattributed += w.http - w.serve
		}
	}
	nReads := max(len(reads), 1)
	perRow := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	overhead := 0.0
	if base := percentile(untraced.reads, 0.5); base > 0 {
		overhead = (percentile(httpReads, 0.5)/base - 1) * 100
	}
	httpN := len(reads) + len(writes) - nDirect
	m := map[string]metric{
		"endpoint.self_us":            {us(durPct(endpointSelf, 0.5)), "us"},
		"core.query_us_p50":           {us(durPct(query, 0.5)), "us"},
		"core.query_us_p99":           {us(durPct(query, 0.99)), "us"},
		"core.update_us_p50":          {us(durPct(coreUpd, 0.5)), "us"},
		"core.update_us_p99":          {us(durPct(coreUpd, 0.99)), "us"},
		"core.allocs_per_read":        {float64(readAllocs) / float64(nReads), "allocs"},
		"core.allocs_per_write":       {float64(writeAllocs) / float64(max(nDirect, 1)), "allocs"},
		"sparql.parse_us":             {us(durPct(parse, 0.5)), "us"},
		"sparql.serialize_ns_per_row": {perRow(serialize, rows), "ns"},
		"sparql.rows_per_req":         {float64(rows) / float64(nReads), "count"},
		"update.parse_us":             {us(durPct(updParse, 0.5)), "us"},
		"sqlexec.select_us":           {us(durPct(sel, 0.5)), "us"},
		"sqlexec.ns_per_row":          {perRow(selTotal, selRows), "ns"},
		"trace.overhead_pct":          {overhead, "%"},
		"trace.unattributed_us":       {us(unattributed) / float64(max(httpN, 1)), "us"},
	}

	fmt.Fprintf(out, "# traced run: %d reads, %d writes (%d direct); untraced read p50 %.4f ms, traced %.4f ms (overhead %+.1f%%)\n",
		len(reads), len(writes), nDirect, percentile(untraced.reads, 0.5), percentile(httpReads, 0.5), overhead)
	if self.total > 0 {
		fmt.Fprintf(out, "# self time per read (mean over %d reads, share of the http.request span):\n", len(reads))
		for _, l := range []struct {
			name string
			d    time.Duration
		}{
			{"unattributed (client, loopback, net/http outside the handler)", self.transport},
			{"endpoint (handler minus core)", self.endpoint},
			{"core (query minus serialize and executor)", self.core},
			{"sparql.parse (parse-memo misses only)", self.parse},
			{"sparql.serialize", self.serialize},
			{"sqlexec.select", self.sel},
		} {
			fmt.Fprintf(out, "#   %-64s %10.2f us %6.1f%%\n", l.name, us(l.d)/float64(nReads), 100*float64(l.d)/float64(self.total))
		}
	}
	return m
}

// durabilityProbes measures recovery and fsync cost in-process:
// rdb.Open on a copy of the directory the last killed daemon left, and
// WAL append+fsync of records of the workload's mean record size.
func durabilityProbes(cr *childRun, work string, recordBytes float64) (map[string]metric, error) {
	t0 := time.Now()
	db, _, err := workload.OpenDatabase(cr.killedCopy)
	if err != nil {
		return nil, fmt.Errorf("reopening the killed directory: %w", err)
	}
	openS := time.Since(t0).Seconds()
	recovered := db.DurabilityStats().RecoveredRecords
	if err := db.Close(); err != nil {
		return nil, err
	}

	dir := filepath.Join(work, "walprobe")
	l, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	payload := make([]byte, max(int(recordBytes)-8, 1)) // WALBytes counts the 8-byte frame header
	var syncs []time.Duration
	for i := 0; i < 200; i++ {
		t := time.Now()
		if err := l.Append(payload); err != nil {
			return nil, err
		}
		if err := l.Sync(); err != nil {
			return nil, err
		}
		syncs = append(syncs, time.Since(t))
	}
	sort.Slice(syncs, func(i, j int) bool { return syncs[i] < syncs[j] })
	return map[string]metric{
		"rdb.open_s":            {openS, "s"},
		"rdb.recovered_records": {float64(recovered), "count"},
		"wal.bytes_per_record":  {recordBytes, "bytes"},
		"wal.sync_us":           {us(durPct(syncs, 0.5)), "us"},
	}, nil
}
