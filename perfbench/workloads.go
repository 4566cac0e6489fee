package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The three workloads. Each is a closed loop over conns connections:
// a connection sends its next request only when the previous answer
// has been read and checked, as an application server with a small
// pool does.
//
//   - point_rw: 90% point reads over all authors, 10% pk-pinned
//     mailbox MODIFYs on owned authors. Tiny results, ~80k distinct
//     query strings against the 256-entry parse memo: per-request fixed
//     costs (HTTP, parse, plan bind, snapshot pin, serializer set-up,
//     fsync) dominate.
//   - scan_read: large results from few distinct query strings (they
//     fit the memo), plus the same MODIFYs at under a tenth of the
//     time so write latency is still observed: executor
//     scan/join/aggregate, row decode and the streaming writers
//     dominate.
//   - ingest_write: a fixed count of writes — multi-table INSERT DATA
//     of ten new authors with two publications each (57%), MODIFYs
//     (25%) and DELETE DATAs (7%) on owned authors — plus 12%
//     read-backs of owned mailboxes: update parse, plan, scheduler,
//     validation, WAL append/fsync and checkpoints dominate.
const (
	pointRW     = "point_rw"
	scanRead    = "scan_read"
	ingestWrite = "ingest_write"
)

var workloadNames = []string{pointRW, scanRead, ingestWrite}

// ingestPerSecond sizes ingest_write: it runs ingestPerSecond×seconds
// requests in total, so the replayed WAL tail has the same length in
// every run of the same length. On a 2-vCPU Intel Xeon VM that count
// takes about the given seconds, and each part's WAL crosses the
// default 4 MiB checkpoint threshold.
const ingestPerSecond = 450

// newAuthors is the number of new authors per ingest_write insert.
// Every write costs an fsync, and on a VM the host's work for an fsync
// is charged to the VM as stolen CPU time: at ~1000 writes/s (one
// author per insert) ingest_write saw two to three times the steal of
// point_rw at the same hour, and its runs spread past their bounds.
// Ten authors per insert bring it to ~400 writes/s, near point_rw's
// ~300.
const newAuthors = 10

// rangeBases is the number of distinct FILTER windows scan_read uses.
const rangeBases = 16

type opKind int

const (
	kPointJSON opKind = iota
	kPointText
	kTeamOf
	kAsk
	kScanAll
	kScanTeam
	kGroupYear
	kRangeTop
	kReadBack
	kModify
	kInsert
	kDelete
	numKinds
)

var kindNames = [numKinds]string{"point_json", "point_text", "team_of", "ask", "scan_all", "scan_team",
	"group_year", "range_top", "read_back", "modify", "insert", "delete"}

func (k opKind) write() bool { return k >= kModify }

// op is one generated request. Reads carry the check of their answer;
// writes carry the model update to apply once acknowledged.
type op struct {
	kind   opKind
	text   string
	accept string
	check  func(body []byte) (rows int, err error)
	ack    func()
}

const jsonAccept = "application/sparql-results+json"

// gen generates one connection's requests from its own seeded stream.
type gen struct {
	workload string
	f        *fixture
	m        *model
	rng      *rand.Rand
	bases    []int
	deck     []opKind
}

func newGen(workload string, f *fixture, m *model, seed int64) *gen {
	g := &gen{workload: workload, f: f, m: m, rng: rand.New(rand.NewSource(seed*1000003 + int64(m.conn)*7919 + 1))}
	brng := rand.New(rand.NewSource(seed))
	for i := 0; i < rangeBases; i++ {
		g.bases = append(g.bases, brng.Intn(max(1, len(f.authors)-10))+1)
	}
	return g
}

// decks fix each workload's mix: a connection deals its requests
// from a deck holding each kind n times, reshuffled when empty, so
// every run sends the same proportions and only the order is random.
//
// scan_read's read kinds take ~4 ms (team), ~10 ms (GROUP BY), ~20 ms
// (range) and ~30 ms (full scan). Team scans are nearly three reads in
// four, so the read p50 falls inside their latencies; when it fell in
// the middle of the GROUP BY latencies (a quarter of the reads), it
// moved up to twice as far as the throughput from run to run. The full
// and range scans still take about half of the time, and the MODIFYs
// (~1 ms) under a tenth while giving write latency ~1000 samples. ingest_write's
// read-backs likewise give read latency ~1000 samples.
var decks = map[string][]struct {
	kind opKind
	n    int
}{
	pointRW:     {{kPointJSON, 9}, {kPointText, 9}, {kTeamOf, 9}, {kAsk, 9}, {kModify, 4}},
	scanRead:    {{kScanAll, 5}, {kScanTeam, 40}, {kGroupYear, 5}, {kRangeTop, 5}, {kModify, 45}},
	ingestWrite: {{kReadBack, 12}, {kInsert, 58}, {kModify, 25}, {kDelete, 7}},
}

// next deals the connection's next request.
func (g *gen) next() op {
	if len(g.deck) == 0 {
		for _, e := range decks[g.workload] {
			for i := 0; i < e.n; i++ {
				g.deck = append(g.deck, e.kind)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	k := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return g.op(k)
}

// kinds lists every request kind the workload sends; the warm-up pass
// sends one of each.
func kinds(workload string) []opKind {
	var out []opKind
	for _, e := range decks[workload] {
		out = append(out, e.kind)
	}
	return out
}

// ownedWithMbox picks an owned author that still has a mailbox.
func (g *gen) ownedWithMbox() int {
	for {
		id := g.m.owned[g.rng.Intn(len(g.m.owned))]
		if g.m.mbox[id] != "" {
			return id
		}
	}
}

func (g *gen) op(k opKind) op {
	f, m := g.f, g.m
	switch k {
	case kPointJSON, kPointText:
		id := g.rng.Intn(len(f.authors)) + 1
		o := op{kind: k, text: fmt.Sprintf("%sSELECT ?f ?m WHERE { ex:author%d foaf:firstName ?f ; foaf:mbox ?m . }", prologue, id)}
		first := f.authors[id-1].first
		want, owned := m.mbox[id] // only the owner knows the current mailbox
		if k == kPointJSON {
			o.accept = jsonAccept
			o.check = func(body []byte) (int, error) {
				rows, err := parseJSONRows(body)
				if err != nil {
					return 0, err
				}
				if len(rows) != 1 || rows[0]["f"] != first || owned && rows[0]["m"] != want {
					return len(rows), fmt.Errorf("author%d: got %v, want f=%s m=%s", id, rows, first, want)
				}
				return 1, nil
			}
		} else {
			o.check = func(body []byte) (int, error) {
				lines := tableRows(body)
				if len(lines) != 1 || !strings.Contains(lines[0], `"`+first+`"`) || owned && !strings.Contains(lines[0], "<"+want+">") {
					return len(lines), fmt.Errorf("author%d: got %q, want f=%s m=%s", id, lines, first, want)
				}
				return 1, nil
			}
		}
		return o
	case kTeamOf:
		id := g.rng.Intn(len(f.authors)) + 1
		want := teamName(f.authors[id-1].team)
		return op{kind: k, accept: jsonAccept,
			text: fmt.Sprintf("%sSELECT ?n WHERE { ex:author%d ont:team ?t . ?t foaf:name ?n . }", prologue, id),
			check: func(body []byte) (int, error) {
				rows, err := parseJSONRows(body)
				if err != nil {
					return 0, err
				}
				if len(rows) != 1 || rows[0]["n"] != want {
					return len(rows), fmt.Errorf("team of author%d: got %v, want %s", id, rows, want)
				}
				return 1, nil
			}}
	case kAsk:
		id := g.rng.Intn(len(f.authors)) + 1
		return op{kind: k,
			text: fmt.Sprintf("%sASK { ex:author%d foaf:family_name %q . }", prologue, id, familyName(id)),
			check: func(body []byte) (int, error) {
				if got := strings.TrimSpace(string(body)); got != "true" {
					return 0, fmt.Errorf("ASK author%d: got %q, want true", id, got)
				}
				return 0, nil
			}}
	case kScanAll:
		// A full parse of 20k rows would cost the client as much as the
		// server; count the rows and look for a sample of the owned
		// mailboxes, whose values are unique strings.
		var samples []string
		for i := 0; i < 4; i++ {
			samples = append(samples, m.mbox[g.ownedWithMbox()])
		}
		wantRows := len(f.authors)
		return op{kind: k, accept: jsonAccept,
			text: prologue + "SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }",
			check: func(body []byte) (int, error) {
				rows := bytes.Count(body, []byte(`"x": {`))
				if rows != wantRows {
					return rows, fmt.Errorf("mailbox scan: %d rows, want %d", rows, wantRows)
				}
				for _, s := range samples {
					if !bytes.Contains(body, []byte(`"value": "`+s+`"`)) {
						return rows, fmt.Errorf("mailbox scan: owned mailbox %s missing", s)
					}
				}
				return rows, nil
			}}
	case kScanTeam:
		t := g.rng.Intn(f.teams) + 1
		want := f.teamSize[t]
		return op{kind: k,
			text: fmt.Sprintf("%sSELECT ?x ?f WHERE { ?x ont:team ex:team%d ; foaf:firstName ?f . }", prologue, t),
			check: func(body []byte) (int, error) {
				if n := len(tableRows(body)); n != want {
					return n, fmt.Errorf("team%d members: %d rows, want %d", t, n, want)
				}
				return want, nil
			}}
	case kGroupYear:
		want := f.yearCount
		return op{kind: k, accept: jsonAccept,
			text: prologue + "SELECT ?y (COUNT(?p) AS ?c) WHERE { ?p ont:pubYear ?y . } GROUP BY ?y",
			check: func(body []byte) (int, error) {
				rows, err := parseJSONRows(body)
				if err != nil {
					return 0, err
				}
				got := map[string]int{}
				for _, r := range rows {
					var c int
					fmt.Sscan(r["c"], &c)
					got[r["y"]] = c
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return len(rows), fmt.Errorf("publications per year: got %v, want %v", got, want)
				}
				return len(rows), nil
			}}
	case kRangeTop:
		base := g.bases[g.rng.Intn(len(g.bases))]
		hi := min(base+50, len(f.authors)+1)
		var want []string
		for id := base; id < base+5 && id < hi; id++ {
			want = append(want, familyName(id)+" "+teamName(f.authors[id-1].team))
		}
		return op{kind: k, accept: jsonAccept,
			text: fmt.Sprintf("%sSELECT ?l ?team WHERE { ?x foaf:family_name ?l ; ont:team ?t . ?t foaf:name ?team . FILTER (?l >= %q && ?l < %q) } ORDER BY ?l LIMIT 5",
				prologue, familyName(base), familyName(hi)),
			check: func(body []byte) (int, error) {
				rows, err := parseJSONRows(body)
				if err != nil {
					return 0, err
				}
				got := make([]string, len(rows))
				for i, r := range rows {
					got[i] = r["l"] + " " + r["team"]
				}
				if strings.Join(got, ",") != strings.Join(want, ",") {
					return len(rows), fmt.Errorf("family names from %s: got %v, want %v", familyName(base), got, want)
				}
				return len(rows), nil
			}}
	case kReadBack:
		id := m.owned[g.rng.Intn(len(m.owned))]
		want := m.mbox[id]
		return op{kind: k, accept: jsonAccept,
			text: fmt.Sprintf("%sSELECT ?m WHERE { ex:author%d foaf:mbox ?m . }", prologue, id),
			check: func(body []byte) (int, error) {
				rows, err := parseJSONRows(body)
				if err != nil {
					return 0, err
				}
				if want == "" && len(rows) != 0 || want != "" && (len(rows) != 1 || rows[0]["m"] != want) {
					return len(rows), fmt.Errorf("mailbox of author%d: got %v, want %q", id, rows, want)
				}
				return len(rows), nil
			}}
	case kModify:
		id := g.ownedWithMbox()
		m.serial++
		mbox := fmt.Sprintf("mailto:c%d-%d-a%d@example.org", m.conn, m.serial, id)
		return op{kind: k,
			text: fmt.Sprintf("%sMODIFY\nDELETE { ex:author%d foaf:mbox ?m . }\nINSERT { ex:author%d foaf:mbox <%s> . }\nWHERE { ex:author%d foaf:mbox ?m . }",
				prologue, id, id, mbox, id),
			ack: func() { m.mbox[id] = mbox }}
	case kDelete:
		id := g.ownedWithMbox()
		return op{kind: k,
			text: fmt.Sprintf("%sDELETE DATA { ex:author%d foaf:mbox <%s> . }", prologue, id, m.mbox[id]),
			ack:  func() { m.mbox[id] = "" }}
	default: // kInsert
		// newAuthors authors with two publications each: five rows per
		// author over three tables in one request (Listing 15's shape,
		// batched).
		var b strings.Builder
		b.WriteString(prologue + "INSERT DATA {\n")
		ids := make([]int, newAuthors)
		for i := range ids {
			id := m.newID()
			ids[i] = id
			for _, pid := range []int{2 * id, 2*id + 1} {
				pubTriples(&b, pid, ingestTitle(pid), publication{year: minYear + g.rng.Intn(years), pubType: g.rng.Intn(f.pubTypes) + 1,
					publisher: g.rng.Intn(f.publishers) + 1, author: id})
			}
			authorTriples(&b, id, author{first: firstNames[g.rng.Intn(len(firstNames))], team: g.rng.Intn(f.teams) + 1}, seedMbox(id))
		}
		b.WriteString("}\n")
		return op{kind: k, text: b.String(), ack: func() {
			for _, id := range ids {
				m.mbox[id] = seedMbox(id)
				m.owned = append(m.owned, id)
			}
			m.newAuthors += len(ids)
		}}
	}
}

// ingestTitle is a full-length title with subtitle: ingested records
// carry more text than the fixture's, which sizes the WAL records.
func ingestTitle(id int) string {
	return fmt.Sprintf("Updating relational data via SPARQL/Update: translating update operations into SQL "+
		"over an R3M mapping, with constraint checking, feedback reports and compiled plans (record %d)", id)
}

// parseJSONRows decodes a SPARQL results JSON document into one
// variable -> value map per row.
func parseJSONRows(body []byte) ([]map[string]string, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding results JSON: %w", err)
	}
	out := make([]map[string]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		out[i] = map[string]string{}
		for k, v := range b {
			out[i][k] = v.Value
		}
	}
	return out, nil
}

// tableRows returns the data lines of a text-table answer.
func tableRows(body []byte) []string {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 {
		return nil
	}
	return lines[1:]
}

// expectedState merges the connections' models into the full mailbox
// map and per-table row counts the store must hold.
func expectedState(f *fixture, models []*model) (map[string]string, map[string]int) {
	mbox := map[string]string{}
	news := 0
	for _, m := range models {
		for id, v := range m.mbox {
			if v != "" {
				mbox[fmt.Sprintf("http://example.org/db/author%d", id)] = v
			}
		}
		news += m.newAuthors
	}
	n := len(f.authors)
	return mbox, map[string]int{
		"team": f.teams, "publisher": f.publishers, "pubtype": f.pubTypes,
		"author": n + news, "publication": n + 2*news, "publication_author": n + 2*news,
	}
}

// diffMailboxes reports the first differences between a scanned and
// an expected mailbox map.
func diffMailboxes(got, want map[string]string) error {
	var bad []string
	for k, v := range want {
		if got[k] != v {
			bad = append(bad, fmt.Sprintf("%s: got %q want %q", k, got[k], v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: unexpected %q", k, v))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%d mailbox differences, first: %s", len(bad), strings.Join(bad[:min(3, len(bad))], "; "))
}
