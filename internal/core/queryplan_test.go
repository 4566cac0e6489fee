package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/sqlgen"
	"ontoaccess/internal/update"
)

// queryParityCases cover the three compiled forms across the planner's
// access paths; each runs through the compiled pipeline and the
// uncompiled baseline and must agree exactly.
var queryParityCases = []struct{ name, q string }{
	{"select typed lookup", `SELECT ?x ?mbox WHERE {
	  ?x rdf:type foaf:Person ; foaf:firstName "Matthias" ;
	     foaf:family_name "Hert" ; foaf:mbox ?mbox . }`},
	{"select const subject", `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`},
	{"select fk object", `SELECT ?a WHERE { ?a ont:team ex:team5 . }`},
	{"select join", `SELECT ?title ?last ?team WHERE {
	  ?pub dc:creator ?a ; dc:title ?title .
	  ?a foaf:family_name ?last ; ont:team ?t .
	  ?t foaf:name ?team . }`},
	{"select star", `SELECT * WHERE { ?t foaf:name ?name . }`},
	{"select miss", `SELECT ?m WHERE { ex:author999 foaf:mbox ?m . }`},
	{"ask hit", `ASK { ex:author6 foaf:family_name "Hert" . }`},
	{"ask miss", `ASK { ex:author6 foaf:family_name "Nobody" . }`},
	{"construct", `CONSTRUCT { ?a <http://e/wrote> ?p . } WHERE { ?p dc:creator ?a . }`},
	{"construct ground", `CONSTRUCT { ex:author6 rdf:type foaf:Person . } WHERE { ex:author6 foaf:family_name "Hert" . }`},
	// FILTER / solution-modifier shapes the pipeline compiles since PR 5.
	{"filter string eq", `SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "Hert") }`},
	{"filter string ne", `SELECT ?x ?l WHERE { ?x foaf:family_name ?l . FILTER (?l != "Nobody") }`},
	{"filter string range", `SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l >= "A" && ?l < "Z") }`},
	{"filter canonical year eq", `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "2009") }`},
	{"filter on join", `SELECT ?l ?name WHERE { ?x foaf:family_name ?l ; ont:team ?t . ?t foaf:name ?name . FILTER (?name = "Software Engineering") }`},
	{"ask with filter", `ASK { ?x foaf:family_name ?l . FILTER (?l = "Hert") }`},
	{"construct with filter", `CONSTRUCT { ?x <http://e/named> ?l . } WHERE { ?x foaf:family_name ?l . FILTER (?l >= "H") }`},
	{"order by", `SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY ?t`},
	{"order by desc limit", `SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY DESC(?t) LIMIT 2`},
	{"order by non-projected", `SELECT ?x WHERE { ?x foaf:family_name ?l . } ORDER BY ?l`},
	{"distinct", `SELECT DISTINCT ?name WHERE { ?x ont:team ?t . ?t foaf:name ?name . }`},
	{"limit offset", `SELECT ?t WHERE { ?p dc:title ?t . } ORDER BY ?t LIMIT 1 OFFSET 1`},
	{"limit zero", `SELECT ?t WHERE { ?p dc:title ?t . } LIMIT 0`},
	{"filter order limit", `SELECT ?l WHERE { ?x foaf:family_name ?l . FILTER (?l > "A") } ORDER BY DESC(?l) LIMIT 3`},
}

// TestQueryPlanParity runs every case through the compiled pipeline
// and through the uncompiled baseline mediator: identical solutions
// (including row order — both execute the same SELECT structure),
// identical booleans, identical graphs, and for SELECT identical SQL.
func TestQueryPlanParity(t *testing.T) {
	compiled := paperMediator(t, Options{})
	baseline := paperMediator(t, Options{DisablePlanCache: true})
	mustExec(t, compiled, listing15)
	mustExec(t, baseline, listing15)
	for _, tc := range queryParityCases {
		t.Run(tc.name, func(t *testing.T) {
			src := paperPrologue + tc.q
			// Twice: the second execution is served from the parse
			// memo's bound plan.
			for i := 0; i < 2; i++ {
				got, gerr := compiled.Query(src)
				want, werr := baseline.Query(src)
				if gerr != nil || werr != nil {
					t.Fatalf("errors: compiled %v, baseline %v", gerr, werr)
				}
				if got.Form != want.Form || got.Bool != want.Bool {
					t.Fatalf("form/bool: %+v vs %+v", got, want)
				}
				if !reflect.DeepEqual(got.Vars, want.Vars) {
					t.Errorf("vars: %v vs %v", got.Vars, want.Vars)
				}
				if !reflect.DeepEqual(got.Solutions, want.Solutions) {
					t.Errorf("solutions:\n%v\nvs\n%v", got.Solutions, want.Solutions)
				}
				if got.Form == sparql.FormSelect && got.SQL != want.SQL {
					t.Errorf("SQL:\n%s\nvs\n%s", got.SQL, want.SQL)
				}
				if (got.Graph == nil) != (want.Graph == nil) {
					t.Fatalf("graph presence: %v vs %v", got.Graph, want.Graph)
				}
				if got.Graph != nil && !got.Graph.Equal(want.Graph) {
					t.Errorf("graphs diverge.\nonly compiled:\n%v\nonly baseline:\n%v",
						got.Graph.Diff(want.Graph), want.Graph.Diff(got.Graph))
				}
			}
		})
	}
	if s := compiled.QueryPlanCacheStats(); s.Size == 0 {
		t.Errorf("no query plans compiled: %+v", s)
	}
	if s := baseline.QueryPlanCacheStats(); s.Size != 0 {
		t.Errorf("baseline compiled query plans despite DisablePlanCache: %+v", s)
	}
}

// TestQueryPlanCacheAcrossParams sends never-repeated query strings
// sharing one shape: the parse memo misses every time, the plan cache
// hits after the first compile, and the answers track the data.
func TestQueryPlanCacheAcrossParams(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:team7 foaf:name "Graphs" ; ont:teamCode "G" . }`)
	for i, want := range map[string]string{"5": "Software Engineering", "7": "Graphs"} {
		res, err := m.Query(paperPrologue + `SELECT ?name WHERE { ex:team` + i + ` foaf:name ?name . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 1 || res.Solutions[0]["name"].Value != want {
			t.Errorf("team%s -> %v", i, res.Solutions)
		}
	}
	if s := m.QueryPlanCacheStats(); s.Hits == 0 {
		t.Errorf("shared shape never hit the plan cache: %+v", s)
	}
}

// TestQueryPlanSeesFreshSnapshots guards against result caching: a
// bound plan pins translation work, never data.
func TestQueryPlanSeesFreshSnapshots(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	q := paperPrologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`
	res, err := m.Query(q)
	if err != nil || len(res.Solutions) != 1 {
		t.Fatalf("initial: %v, %v", res, err)
	}
	mustExec(t, m, paperPrologue+`
MODIFY DELETE { ex:team5 foaf:name ?n . } INSERT { ex:team5 foaf:name "Renamed" . }
WHERE { ex:team5 foaf:name ?n . }`)
	res, err = m.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["name"].Value != "Renamed" {
		t.Errorf("stale read through cached plan: %v", res.Solutions)
	}
}

// TestQueryPlanIntrospection exercises QueryPlanFor and the plan's
// accessors; unplannable queries report errUnplannable and fall back
// transparently in Query.
func TestQueryPlanIntrospection(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	p, err := m.QueryPlanFor(paperPrologue + `SELECT ?x ?mbox WHERE { ?x foaf:family_name "Hert" ; foaf:mbox ?mbox . }`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "SELECT" || p.Slots() != 1 {
		t.Errorf("plan = kind %s, %d slots", p.Kind(), p.Slots())
	}
	if got := p.ReadTables(); len(got) != 1 || got[0] != "author" {
		t.Errorf("reads = %v", got)
	}
	if !strings.Contains(p.Explain(), "SELECT plan") {
		t.Errorf("explain = %q", p.Explain())
	}
	// A UNION plan describes every branch template.
	up, err := m.QueryPlanFor(paperPrologue + `SELECT ?n WHERE { { ?t foaf:name ?n . } UNION { ?x foaf:family_name ?n . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if ex := up.Explain(); !strings.Contains(ex, "SELECT template over team (0 join(s), 1 condition(s))") ||
		!strings.Contains(ex, "SELECT template over author (0 join(s), 1 condition(s))") {
		t.Errorf("UNION explain = %q", ex)
	}
	ask, err := m.QueryPlanFor(paperPrologue + `ASK { ex:author6 foaf:family_name "Hert" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if ask.Kind() != "ASK" || ask.sel.spec.Limit != 1 {
		t.Errorf("ASK plan = kind %s, limit %d (want LIMIT 1)", ask.Kind(), ask.sel.spec.Limit)
	}
	for _, unplannable := range []string{
		// Ordering "2009" lexically against an INTEGER-stored, plainly
		// decoded attribute cannot compile: SQL would order numerically
		// while SPARQL type-errors the comparison.
		`SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y >= "2009") }`,
		// A numeric constant against a plainly decoded attribute is a
		// SPARQL type error (xsd:string vs xsd:integer), not a numeric
		// comparison; only numerically datatyped attributes compile.
		`SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y > 2005) }`,
		// IRI-valued positions (subjects, foaf:mbox) and richer
		// expression shapes stay on the virtual path.
		`SELECT ?x WHERE { ?x foaf:mbox ?m . FILTER (?m = "mailto:x") }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (STR(?l) = "Hert") }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "Hert"@en) }`,
		`SELECT ?x WHERE { ?x foaf:family_name ?l . } ORDER BY ?x`,
		`CONSTRUCT { ?x <http://e/p> ?x . } WHERE { ?x foaf:family_name ?l . } LIMIT 1`,
		`SELECT ?p WHERE { ?x ?p ?o . }`,
		`CONSTRUCT { _:b <http://e/p> ?x . } WHERE { ?x foaf:family_name "Hert" . }`,
	} {
		if _, err := m.QueryPlanFor(paperPrologue + unplannable); !errors.Is(err, errUnplannable) {
			t.Errorf("%s: err = %v, want errUnplannable", unplannable, err)
		}
		// The full path still answers through the fallback.
		if _, err := m.Query(paperPrologue + unplannable); err != nil {
			t.Errorf("%s: fallback failed: %v", unplannable, err)
		}
	}
	// Rich structural shapes — OPTIONAL, UNION, aggregates, FILTER
	// disjunctions — compile as zero-slot plans keyed on the source.
	for _, rich := range []string{
		`SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (?l = "A" || ?l = "Hert") }`,
		`SELECT ?x ?m WHERE { ?x foaf:family_name "Hert" . OPTIONAL { ?x foaf:mbox ?m . } }`,
		`SELECT ?n WHERE { { ?t foaf:name ?n . } UNION { ?x foaf:family_name ?n . } }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?x foaf:family_name ?l . }`,
	} {
		p, err := m.QueryPlanFor(paperPrologue + rich)
		if err != nil {
			t.Errorf("%s: rich shape did not compile: %v", rich, err)
			continue
		}
		if p.Kind() != "SELECT" || p.Slots() != 0 || !strings.HasPrefix(p.Key(), "RICHQ") {
			t.Errorf("%s: rich plan = kind %s, %d slots, key %q", rich, p.Kind(), p.Slots(), p.Key())
		}
	}
}

// TestQueryPlanLimitSlots pins the LIMIT/OFFSET parameterization: the
// values are argument slots, so "LIMIT 1" and "LIMIT 30" share one
// compiled plan, and a compiled "LIMIT 0" returns no solutions (the
// regression the sqlgen -1 sentinel fixes: 0 used to render no LIMIT
// clause and return everything).
func TestQueryPlanLimitSlots(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	mustExec(t, m, paperPrologue+`INSERT DATA { ex:team9 foaf:name "Nine" ; ont:teamCode "N9" . }`)
	counts := map[int]int{0: 0, 1: 1, 30: 2}
	var keys []string
	for limit, want := range counts {
		q := fmt.Sprintf(`%sSELECT ?name WHERE { ?t foaf:name ?name . } ORDER BY ?name LIMIT %d`, paperPrologue, limit)
		res, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != want {
			t.Errorf("LIMIT %d returned %d solutions, want %d: %v", limit, len(res.Solutions), want, res.Solutions)
		}
		plan, err := m.QueryPlanFor(q)
		if err != nil {
			t.Fatalf("LIMIT %d did not compile: %v", limit, err)
		}
		keys = append(keys, plan.Key())
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("LIMIT variants landed in different shapes:\n%q\nvs\n%q", keys[0], k)
		}
	}
}

// TestQueryPlanFilterCanonicalStale pins the canonicality re-check on
// re-binding: the "?y = <string>" shape compiles from a canonical
// lexical form, and a later non-canonical parameter ("02009", which
// would convert to the same stored integer but is a different RDF
// term) must fall back to the uncompiled path and return the SPARQL
// answer — no solutions — rather than the SQL value match.
func TestQueryPlanFilterCanonicalStale(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	hit, err := m.Query(paperPrologue + `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "2009") }`)
	if err != nil || len(hit.Solutions) != 1 {
		t.Fatalf("canonical filter: %v, %v", hit, err)
	}
	miss, err := m.Query(paperPrologue + `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "02009") }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(miss.Solutions) != 0 {
		t.Errorf("non-canonical lexical matched through the compiled plan: %v", miss.Solutions)
	}
	// Integers at or beyond 2^53 also go stale: rdb.Compare goes
	// through float64, where term identity and value equality part
	// ways. The fallback answers (no match against "2009").
	big, err := m.Query(paperPrologue + `SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER (?y = "9007199254740992") }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Solutions) != 0 {
		t.Errorf("2^53 lexical matched: %v", big.Solutions)
	}
}

// TestQueryExecStats checks the /healthz effectiveness counters: a
// compiled query counts as compiled, an expression shape the
// translator cannot lower (STR) as fallback.
func TestQueryExecStats(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	if _, err := m.Query(paperPrologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(paperPrologue + `SELECT ?x WHERE { ?x foaf:family_name ?l . FILTER (STR(?l) = "Hert") }`); err != nil {
		t.Fatal(err)
	}
	compiled, fallback := m.QueryExecStats()
	if compiled != 1 || fallback != 1 {
		t.Errorf("exec stats = %d compiled, %d fallback; want 1/1", compiled, fallback)
	}
}

// TestSpecSelectMatchesParsedText is the structural-parity anchor for
// the no-round-trip path: lowering a bound spec through specSelect
// must produce exactly the AST the parser builds from the rendered
// text. Runs over every compiled parity case.
func TestSpecSelectMatchesParsedText(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	for _, tc := range queryParityCases {
		q, err := sparql.ParseQuery(paperPrologue + tc.q)
		if err != nil {
			t.Fatal(err)
		}
		key, args, nq, ok := normalizeQuery(q)
		if !ok {
			t.Fatalf("%s: not normalizable", tc.name)
		}
		plan, ok := m.queryPlanForShape(key, len(args), q, nq)
		if !ok {
			t.Fatalf("%s: not plannable", tc.name)
		}
		spec, err := plan.sel.bindSpec(m, args)
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := specSelect(&spec)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := sqlparser.ParseStatement(sqlgen.Select(spec))
		if err != nil {
			t.Fatalf("%s: rendered SQL does not parse: %v", tc.name, err)
		}
		if !reflect.DeepEqual(lowered, parsed.(sqlparser.Select)) {
			t.Errorf("%s: lowered AST diverges from parsed text.\nlowered: %#v\nparsed:  %#v",
				tc.name, lowered, parsed)
		}
	}
}

// TestModifyBoundSpecMatchesParsedText extends the same anchor to the
// MODIFY WHERE path, which now shares bindSpec/specSelect instead of
// re-parsing its rendered SELECT.
func TestModifyBoundSpecMatchesParsedText(t *testing.T) {
	m := paperMediator(t, Options{})
	mustExec(t, m, listing15)
	plan, err := m.ModifyPlanFor(paperPrologue + `
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	_, args, _, ok := normalizeModify(mustParseModify(t, paperPrologue+`
MODIFY
DELETE { ex:author6 foaf:mbox ?m . }
INSERT { ex:author6 foaf:mbox <mailto:new@example.org> . }
WHERE { ex:author6 foaf:mbox ?m . }`))
	if !ok {
		t.Fatal("modify not normalizable")
	}
	bm, err := plan.bind(m, args)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := sqlparser.ParseStatement(bm.sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.stmt, parsed) {
		t.Errorf("bound MODIFY AST diverges from parsed text.\nlowered: %#v\nparsed:  %#v", bm.stmt, parsed)
	}
}

// TestQueryDisablePlanCacheMatchesSeedBehaviour pins the ablation:
// with the plan cache off the mediator must not touch the query
// caches at all.
func TestQueryDisablePlanCacheMatchesSeedBehaviour(t *testing.T) {
	m := paperMediator(t, Options{DisablePlanCache: true})
	mustExec(t, m, listing15)
	res, err := m.Query(paperPrologue + `SELECT ?name WHERE { ex:team5 foaf:name ?name . }`)
	if err != nil || len(res.Solutions) != 1 {
		t.Fatalf("res = %v, %v", res, err)
	}
	if res.SQL == "" {
		t.Error("uncached BGP query should still run through the literal compile")
	}
	qs, ps := m.QueryPlanCacheStats(), m.QueryParseCacheStats()
	if qs.Size != 0 || qs.Misses != 0 || ps.Size != 0 || ps.Misses != 0 {
		t.Errorf("caches touched despite DisablePlanCache: plans %+v, parses %+v", qs, ps)
	}
}

// TestUnionDisplaySQL pins the UNION display text: the branch SELECTs
// without inner terminators, joined by UNION ALL (the branches
// concatenate as bags before the solution-level tail), under one final
// terminator — identical on the memoized and the uncached route.
func TestUnionDisplaySQL(t *testing.T) {
	const want = "SELECT t0.name FROM team t0 WHERE t0.name IS NOT NULL" +
		" UNION ALL SELECT t0.lastname FROM author t0 WHERE t0.lastname IS NOT NULL;"
	for _, opts := range []Options{{}, {DisablePlanCache: true}} {
		m := paperMediator(t, opts)
		mustExec(t, m, listing15)
		res, err := m.Query(paperPrologue + `SELECT ?n WHERE { { ?t foaf:name ?n . } UNION { ?x foaf:family_name ?n . } } ORDER BY ?n`)
		if err != nil {
			t.Fatal(err)
		}
		if res.SQL != want {
			t.Errorf("DisablePlanCache=%v: SQL = %q, want %q", opts.DisablePlanCache, res.SQL, want)
		}
		if len(res.Solutions) != 2 || res.Solutions[0]["n"].Value != "Hert" {
			t.Errorf("DisablePlanCache=%v: solutions = %v", opts.DisablePlanCache, res.Solutions)
		}
	}
}

func mustParseModify(t *testing.T, src string) update.Modify {
	t.Helper()
	req, err := update.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := req.Ops[0].(update.Modify)
	if !ok {
		t.Fatal("not a MODIFY")
	}
	return m
}
