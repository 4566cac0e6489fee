package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// conns is the number of client connections of a measured loop. One
// connection keeps one request in flight: on a 2-vCPU host the
// handler has a CPU to itself while the daemon's garbage collector
// and checkpoints use the other, so the figures measure the program
// rather than the queue for the CPUs. In one comparison of five runs
// each, scan_read's throughput spread twice as far with two.
const conns = 1

// seedConns is the number of connections that seed the fixture.
const seedConns = 2

// clientTimeout bounds one request; a timeout counts as a failure.
const clientTimeout = 30 * time.Second

// client is one keep-alive HTTP connection to the endpoint.
type client struct {
	base string
	http *http.Client
	buf  bytes.Buffer
	hdr  map[string]string // extra request headers (the traced run's ids)
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: clientTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// send issues one request and reads the whole answer; the returned
// body is valid until the next call.
func (c *client) send(o *op) (int, []byte, error) {
	var req *http.Request
	var err error
	if o.kind.write() {
		req, err = http.NewRequest(http.MethodPost, c.base+"/update", strings.NewReader(o.text))
		if err == nil {
			req.Header.Set("Content-Type", "application/sparql-update")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+"/sparql?query="+url.QueryEscape(o.text), nil)
		if err == nil && o.accept != "" {
			req.Header.Set("Accept", o.accept)
		}
	}
	if err != nil {
		return 0, nil, err
	}
	for k, v := range c.hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// outcome checks one answer: a transport error, a status other than
// 200 (503 shed and 504 timeout included) and a wrong answer are all
// failures. On success it applies a write to the model.
func outcome(o *op, status int, body []byte, err error) (rows int, fail error) {
	switch {
	case err != nil:
		return 0, err
	case status != http.StatusOK:
		return 0, fmt.Errorf("%s: status %d: %.200s", kindNames[o.kind], status, body)
	case o.check != nil:
		rows, err := o.check(body)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", kindNames[o.kind], err)
		}
		return rows, nil
	}
	o.ack()
	return 0, nil
}

// tally is what one connection measured.
type tally struct {
	reads, writes []time.Duration
	byKind        [numKinds][]time.Duration
	rows          int64
	attempted     int
	failures      []error
	failed        int
}

func (t *tally) record(o *op, d time.Duration, rows int, fail error) {
	t.attempted++
	if fail != nil {
		t.failed++
		if len(t.failures) < 5 {
			t.failures = append(t.failures, fail)
		}
		return
	}
	t.byKind[o.kind] = append(t.byKind[o.kind], d)
	if o.kind.write() {
		t.writes = append(t.writes, d)
	} else {
		t.reads = append(t.reads, d)
	}
	t.rows += int64(rows)
}

func (t *tally) merge(o *tally) {
	t.reads = append(t.reads, o.reads...)
	t.writes = append(t.writes, o.writes...)
	for k := range t.byKind {
		t.byKind[k] = append(t.byKind[k], o.byKind[k]...)
	}
	t.rows += o.rows
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

// run sends op o on c, checks it and records it.
func (t *tally) run(c *client, o op) {
	t0 := time.Now()
	status, body, err := c.send(&o)
	d := time.Since(t0)
	rows, fail := outcome(&o, status, body, err)
	t.record(&o, d, rows, fail)
}

// drive runs the closed loop: one goroutine per connection, each
// sending its generator's requests until the deadline passes or, with
// count > 0, until it has sent count requests.
func drive(base string, gens []*gen, dur time.Duration, count int) (*tally, time.Duration) {
	tallies := make([]*tally, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, g := range gens {
		i, g := i, g
		tallies[i] = &tally{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for n := 0; ; n++ {
				if count > 0 && n >= count || count == 0 && !time.Now().Before(deadline) {
					return
				}
				tallies[i].run(c, g.next())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total, elapsed
}

// seed posts the fixture through /update: the pools first, then the
// author batches and then the publication batches (they reference the
// authors), each phase spread over the connections.
func seed(base string, f *fixture) error {
	reqs := f.seedRequests()
	nb := (len(f.authors) + seedBatch - 1) / seedBatch
	for _, phase := range [][]string{reqs[:1], reqs[1 : 1+nb], reqs[1+nb:]} {
		errs := make([]error, seedConns)
		var wg sync.WaitGroup
		for c := 0; c < seedConns; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := newClient(base)
				defer cl.close()
				for i := c; i < len(phase); i += seedConns {
					o := op{kind: kInsert, text: phase[i]}
					status, resp, err := cl.send(&o)
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("status %d: %.300s", status, resp)
					}
					if err != nil {
						errs[c] = fmt.Errorf("seeding: %w", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// warmUp sends one request of every kind the workload uses on every
// connection, so caches and lazy set-up are filled before timing.
func warmUp(base string, gens []*gen, kindsOf []opKind, t *tally) {
	for _, g := range gens {
		c := newClient(base)
		for _, k := range kindsOf {
			t.run(c, g.op(k))
		}
		c.close()
	}
}

// scanState reads the full mailbox scan and the per-table row counts
// from a daemon, for the durability check after a restart.
func scanState(d *daemon) (map[string]string, health, error) {
	c := newClient(d.base)
	defer c.close()
	o := op{kind: kScanAll, accept: jsonAccept, text: prologue + "SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }"}
	status, body, err := c.send(&o)
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("mailbox scan: status %d", status)
	}
	rows, err := parseJSONRows(body)
	if err != nil {
		return nil, nil, err
	}
	got := make(map[string]string, len(rows))
	for _, r := range rows {
		got[r["x"]] = r["m"]
	}
	h, err := d.healthz()
	return got, h, err
}

// verifyState compares a daemon's durable state with the models.
func verifyState(d *daemon, f *fixture, models []*model) error {
	got, h, err := scanState(d)
	if err != nil {
		return err
	}
	wantMbox, wantRows := expectedState(f, models)
	var errs []error
	if err := diffMailboxes(got, wantMbox); err != nil {
		errs = append(errs, err)
	}
	for table, n := range wantRows {
		if int(h["rows."+table]) != n {
			errs = append(errs, fmt.Errorf("table %s: %v rows, want %d", table, h["rows."+table], n))
		}
	}
	return errors.Join(errs...)
}

// percentile returns the q-quantile of d (sorted in place) in ms.
func percentile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(float64(len(d))*q+0.5) - 1
	i = max(0, min(i, len(d)-1))
	return float64(d[i]) / float64(time.Millisecond)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
