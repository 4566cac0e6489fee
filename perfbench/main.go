// Command perfbench is the repository benchmark. It builds
// ./cmd/ontoaccessd, runs it as a child process on loopback with
// -data-dir on a fresh directory (every other flag at its default),
// seeds a fixture through POST /update, drives one named workload
// from one closed-loop client connection while checking every
// answer, and prints the metrics by name and unit. The last line of
// standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 they are the per-layer ones: counters from /healthz
// and /proc around the same child-process run, plus spans recorded by
// a separate traced run of the same workload and seed in this process
// (see trace.go). Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload point_rw --seed 1 --seconds 21 --trace 0
//
// It exits non-zero when any answer fails its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ontoaccess/internal/rdb"
)

const (
	// fixtureAuthors is the fixture's number of authors (and of
	// publications).
	fixtureAuthors = 20000
	// partsPerRun is the number of daemons a run sets up and measures,
	// each for seconds/partsPerRun.
	partsPerRun = 3
	// maxStealPct is the share of the host's CPU time the hypervisor
	// may take during a part's measured loop before the part is left
	// out of the rates and latencies. Each write costs the VM an fsync
	// whose host-side work is charged to it as stolen time, so in busy
	// hours the host takes 10–30% of a write-heavy part's time; a part
	// that lost that much measures the host, not the program.
	maxStealPct = 5
	// restartsPerPart is the number of times a part SIGKILLs its
	// daemon and re-execs it on the same directory. Each restart
	// replays the same WAL tail, so recover_s is a median over
	// partsPerRun×restartsPerPart recoveries.
	restartsPerPart = 2
)

type config struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
	authors  int // fixture size
	parts    int // daemons per run, each set up and measured for seconds/parts
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.root, "root", "..", "root of the checkout to build and run")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the fixture and the request streams")
	flag.IntVar(&cfg.seconds, "seconds", 21, "measured seconds (ingest_write: sets its request count)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.authors, cfg.parts = fixtureAuthors, partsPerRun
	if !validWorkload(cfg.workload) || trace < 0 || trace > 1 || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	cfg.root = root
	res, err := run(cfg, os.Stdout)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// run builds the daemon, measures one workload and reports. All files
// go under <root>/.bench_build; the run's data directories are removed
// at the end.
func run(cfg config, out io.Writer) (*result, error) {
	build := filepath.Join(cfg.root, ".bench_build")
	bin := filepath.Join(build, "bin", "ontoaccessd")
	if err := buildDaemon(cfg.root, bin); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	// An interrupt stops the daemons and removes the run directory. A
	// harder kill still takes the daemons down with this process
	// (Pdeathsig).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sigs)
		close(done)
	}()
	go func() {
		select {
		case <-sigs:
			killAll()
			os.RemoveAll(work)
			os.Exit(1)
		case <-done:
		}
	}()

	host := hostInfo(work)
	fmt.Fprintf(out, "# host: nproc %v, %v, %v, kernel %v, data directory on %v; %v\n",
		host["nproc"], host["cpu_model"], host["go_version"], host["kernel"], host["data_fs"], host["flush_policy"])
	fmt.Fprintf(out, "# workload %s, seed %d, %d s, trace %v, fixture %d authors + %d publications, %d connections\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.authors, cfg.authors, conns)

	steal0 := cpuSteal()
	cr, err := runChild(cfg, bin, work)
	if err != nil {
		return nil, err
	}
	host["cpu_steal_pct"] = cpuSteal().since(steal0)
	res := &result{Attempted: cr.tally.attempted, Failed: cr.tally.failed, Metrics: map[string]metric{}}
	metrics := cr.e2e
	if cfg.trace {
		metrics = cr.layer
		tm, tt, err := tracedRun(cfg, work, cr, out)
		if err != nil {
			return nil, err
		}
		for k, v := range tm {
			metrics[k] = v
		}
		res.Attempted += tt.attempted
		res.Failed += tt.failed
		for _, f := range tt.failures {
			logf("traced run failure: %v", f)
		}
	}
	for _, f := range cr.tally.failures {
		logf("failure: %v", f)
	}
	res.Correct = res.Failed == 0
	res.Metrics = metrics
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(out, "# not gated:\n")
	for _, k := range []string{"read_p99_ms", "write_p99_ms"} {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", k, cr.tails[k].Value, cr.tails[k].Unit)
	}
	fmt.Fprintf(out, "%-32s %14.6g ratio (%d of %d requests)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Fprintf(out, "# CPU time stolen by the hypervisor during the child runs: %.2f%%\n", host["cpu_steal_pct"])
	fmt.Fprintf(out, "# samples: %d reads, %d writes\n", len(cr.tally.reads), len(cr.tally.writes))
	for k, d := range cr.tally.byKind {
		if len(d) > 0 {
			fmt.Fprintf(out, "#   %-10s n=%-7d p50 %.4f ms  p99 %.4f ms\n", kindNames[k], len(d), percentile(d, 0.5), percentile(d, 0.99))
		}
	}

	record := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"fixture_authors": cfg.authors, "connections": conns, "host": host, "result": res, "tails": cr.tails,
		"fail_ratio": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	if err := writeRecord(resultsDir(cfg.root), fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace)), record); err != nil {
		return nil, err
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resultsDir holds the result records and span files of a checkout.
func resultsDir(root string) string { return filepath.Join(root, ".bench_build", "results") }

func writeRecord(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// childRun is what one run against child daemons measured.
type childRun struct {
	e2e, tails, layer map[string]metric
	tally             *tally
	killedCopy        string // copy of a data directory as SIGKILL left it
}

// part is one share of a run on its own daemon: set-up, a measured
// closed loop, then SIGKILL, re-exec on the same directory and the
// durability check.
type part struct {
	t           *tally
	elapsed     time.Duration
	setupS, rss float64
	recoverS    []float64 // one per restart
	disk        int64
	h0, h1      health
	cpu         time.Duration
	steal       float64 // % of CPU time stolen during the loop
}

// runChild measures cfg.parts parts of cfg.seconds/cfg.parts each.
// Rates and p50 latencies are the medians of the figures of the parts
// the hypervisor left alone (steadyParts); set-up, memory and disk are
// the medians of all parts' figures, and recovery the median of all
// restarts, so one part slowed by a neighbour on a shared host does
// not move them. p99 latencies pool all parts' samples: a run has over
// 1000 of each kind, so ten or more lie beyond the p99.
func runChild(cfg config, bin, work string) (*childRun, error) {
	f := newFixture(cfg.seed, cfg.authors)
	cr := &childRun{tally: &tally{}}
	var parts []*part
	for i := 0; i < cfg.parts; i++ {
		keep := ""
		if cfg.trace && i == cfg.parts-1 {
			// rdb.open_s reopens a copy of what the last kill left.
			cr.killedCopy = filepath.Join(work, "killed")
			keep = cr.killedCopy
		}
		p, err := runPart(cfg, f, bin, i, filepath.Join(work, fmt.Sprintf("data%d", i)), filepath.Join(work, "ontoaccessd.log"), keep)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
		cr.tally.merge(p.t)
	}

	t := &tally{} // the measured loops only, without set-up traffic
	var cpu time.Duration
	var rps, rowsPS, readP50, writeP50, setupS, recoverS, rss, disk []float64
	var sum func(key string) float64
	for i, p := range parts {
		logf("part %d: set-up %.3f s, %d requests in %.3f s (%.1f/s), recovery %.3f s, RSS %.1f MiB, steal %.2f%%", i,
			p.setupS, len(p.t.reads)+len(p.t.writes), p.elapsed.Seconds(),
			float64(len(p.t.reads)+len(p.t.writes))/p.elapsed.Seconds(), median(p.recoverS), p.rss, p.steal)
		t.merge(p.t)
		cpu += p.cpu
		setupS = append(setupS, p.setupS)
		recoverS = append(recoverS, p.recoverS...)
		rss = append(rss, p.rss)
		disk = append(disk, float64(p.disk)/(1<<20))
	}
	for _, p := range steadyParts(parts) {
		secs := p.elapsed.Seconds()
		rps = append(rps, float64(len(p.t.reads)+len(p.t.writes))/secs)
		rowsPS = append(rowsPS, float64(p.t.rows)/secs)
		readP50 = append(readP50, percentile(p.t.reads, 0.50))
		writeP50 = append(writeP50, percentile(p.t.writes, 0.50))
	}
	sum = func(key string) float64 {
		n := 0.0
		for _, p := range parts {
			n += p.h1.delta(p.h0, key)
		}
		return n
	}
	n := float64(len(t.reads) + len(t.writes))
	cr.e2e = map[string]metric{
		"throughput_rps": {median(rps), "1/s"},
		"read_p50_ms":    {median(readP50), "ms"},
		"write_p50_ms":   {median(writeP50), "ms"},
		"rows_per_s":     {median(rowsPS), "1/s"},
		"setup_s":        {median(setupS), "s"},
		"recover_s":      {median(recoverS), "s"},
		"server_rss_mb":  {median(rss), "MiB"},
		"disk_mb":        {median(disk), "MiB"},
	}
	// The tails are printed and recorded but not gated: on a shared
	// 2-vCPU host they move with the hypervisor's CPU steal by more
	// than any usable bound (see the README).
	cr.tails = map[string]metric{
		"read_p99_ms":  {percentile(t.reads, 0.99), "ms"},
		"write_p99_ms": {percentile(t.writes, 0.99), "ms"},
	}
	writes := float64(len(t.writes))
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hit := func(cache string) float64 {
		hits, misses := sum(cache+".hits"), sum(cache+".misses")
		if hits+misses == 0 {
			return 1 // no lookup missed
		}
		return hits / (hits + misses)
	}
	batches := sum("write batches")
	written, skipped := sum("checkpoint tables.written"), sum("checkpoint tables.unchanged")
	compiled, fallback := sum("query executions.compiled"), sum("query executions.fallback")
	cr.layer = map[string]metric{
		"endpoint.bytes_per_req":       {ratio(sum("endpoint responses.bytes written"), n), "bytes"},
		"endpoint.shed":                {sum("endpoint requests.shed"), "count"},
		"endpoint.timed_out":           {sum("endpoint requests.timed out"), "count"},
		"proc.cpu_ms_per_req":          {ratio(float64(cpu)/float64(time.Millisecond), n), "ms"},
		"core.query_parse_hit_ratio":   {hit("query parses"), "ratio"},
		"core.query_plan_hit_ratio":    {hit("query plans"), "ratio"},
		"core.update_plan_hit_ratio":   {hit("update plans"), "ratio"},
		"core.modify_plan_hit_ratio":   {hit("modify plans"), "ratio"},
		"core.compiled_share":          {ratio(compiled, compiled+fallback), "ratio"},
		"core.ops_per_batch":           {ratio(sum("write batches.ops"), batches), "count"},
		"core.whole_table_batch_share": {ratio(sum("shard batches.whole-table"), batches), "ratio"},
		"core.keyed_fallbacks":         {sum("shard batches.keyed fallbacks"), "count"},
		"rdb.commits_per_write":        {ratio(sum("snapshot version"), writes), "count"},
		"rdb.checkpoints":              {sum("checkpoints"), "count"},
		"rdb.checkpoint_skip_ratio":    {ratio(skipped, written+skipped), "ratio"},
		"wal.fsyncs_per_write":         {ratio(sum("fsyncs"), writes), "count"},
	}
	return cr, nil
}

// steadyParts returns the parts whose measured loop lost at most
// maxStealPct of the host's CPU time to the hypervisor or, when every
// part lost more, the one that lost least.
func steadyParts(parts []*part) []*part {
	var steady []*part
	least := parts[0]
	for i, p := range parts {
		if p.steal <= maxStealPct {
			steady = append(steady, p)
		} else {
			logf("part %d left out of the rates and latencies: %.2f%% of the CPU time stolen", i, p.steal)
		}
		if p.steal < least.steal {
			least = p
		}
	}
	if len(steady) == 0 {
		steady = []*part{least}
	}
	return steady
}

// runPart runs one part. A non-empty keep receives a copy of the data
// directory as SIGKILL left it.
func runPart(cfg config, f *fixture, bin string, index int, dataDir, logPath, keep string) (*part, error) {
	p := &part{t: &tally{}}
	setup := &tally{}
	t0 := time.Now()
	d, err := startDaemon(bin, dataDir, logPath)
	if err != nil {
		return nil, err
	}
	alive := true
	defer func() {
		if alive {
			d.kill()
		}
	}()
	if err := seed(d.base, f); err != nil {
		return nil, err
	}
	var models []*model
	var gens []*gen
	for c := 0; c < conns; c++ {
		m := newModel(c, conns, len(f.authors))
		models = append(models, m)
		gens = append(gens, newGen(cfg.workload, f, m, cfg.seed*int64(cfg.parts)+int64(index)))
	}
	warmUp(d.base, gens, kinds(cfg.workload), setup)
	p.setupS = time.Since(t0).Seconds()

	if p.h0, err = d.healthz(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	count := 0
	if cfg.workload == ingestWrite {
		count = ingestPerSecond * cfg.seconds / cfg.parts / conns
	}
	steal0 := cpuSteal()
	p.t, p.elapsed = drive(d.base, gens, time.Duration(cfg.seconds)*time.Second/time.Duration(cfg.parts), count)
	p.steal = cpuSteal().since(steal0)
	if p.h1, err = d.healthz(); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.rss, err = procHWM(d.pid()); err != nil {
		return nil, err
	}
	if p.disk, err = dirBytes(dataDir); err != nil {
		return nil, err
	}

	// Crash and recover: SIGKILL the daemon, re-exec it on the same
	// directory, and check that exactly the acknowledged writes
	// survived; then kill and recover again, restartsPerPart times.
	d.kill()
	alive = false
	if keep != "" {
		if err := copyDir(dataDir, keep); err != nil {
			return nil, err
		}
	}
	for r := 0; r < restartsPerPart; r++ {
		t1 := time.Now()
		d2, err := startDaemon(bin, dataDir, logPath)
		if err != nil {
			return nil, err
		}
		p.recoverS = append(p.recoverS, time.Since(t1).Seconds())
		verr := verifyState(d2, f, models)
		d2.kill()
		setup.attempted++
		if verr != nil {
			setup.failed++
			setup.failures = append(setup.failures, fmt.Errorf("after restart %d: %w", r+1, verr))
		}
	}
	// Set-up and check traffic counts toward attempted and failed, not
	// toward the latencies.
	p.t.attempted += setup.attempted
	p.t.failed += setup.failed
	p.t.failures = append(p.t.failures, setup.failures...)
	return p, nil
}

// hostInfo describes the machine a record was measured on.
func hostInfo(dataDir string) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"data_fs":    filesystemOf(dataDir),
		"flush_policy": fmt.Sprintf("group commit, one WAL fsync per committed batch, automatic checkpoint every %d MiB of WAL",
			rdb.DefaultCheckpointBytes>>20),
	}
}

// cpuTimes is the aggregate line of /proc/stat: the steal ticks and
// the total of all ticks.
type cpuTimes struct{ steal, total float64 }

func cpuSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var c cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		c.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			c.steal = v
		}
	}
	return c
}

// since returns the share of CPU time stolen since c0, in percent.
func (c cpuTimes) since(c0 cpuTimes) float64 {
	if c.total == c0.total {
		return 0
	}
	return 100 * (c.steal - c0.steal) / (c.total - c0.total)
}

// filesystemOf returns the type of the filesystem holding path, from
// the longest matching mount point in /proc/self/mountinfo.
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), g[0]
		}
	}
	return fs
}
