package workload

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"ontoaccess/internal/core"
	"ontoaccess/internal/sparql"
)

// The metamorphic suite checks read-path invariants that relate
// *different* queries over the *same* data — properties that hold for
// any correct engine, so they need no per-query oracle. Each invariant
// is asserted in both execution modes (memoized plans and the
// uncached literal-compile/virtual path), and the two modes must agree
// with each other, which pins the rich lowering (UNION, OPTIONAL,
// aggregates, FILTER disjunctions) from a second, independent angle to
// the differential harness.

// metamorphicMediators returns both execution modes loaded with the
// same seeded differential state.
func metamorphicMediators(t *testing.T) map[string]*core.Mediator {
	t.Helper()
	modes := map[string]*core.Mediator{}
	for name, opts := range map[string]core.Options{
		"compiled":   {},
		"uncompiled": {DisablePlanCache: true},
	} {
		m, err := NewMediator(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds := NewDifferentialStream(77, 60)
		for _, req := range append(append([]string{}, ds.Setup...), ds.Requests...) {
			m.ExecuteString(req) // invalid requests are rejected identically in both modes
		}
		modes[name] = m
	}
	return modes
}

func querySolutions(t *testing.T, m *core.Mediator, q string) sparql.Solutions {
	t.Helper()
	res, err := m.Query(q)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q)
	}
	return res.Solutions
}

// TestMetamorphicUnionVsDisjunction: a UNION of two branches filtered
// by disjoint ranges must return the same multiset as one branch
// filtered by the OR of the ranges.
func TestMetamorphicUnionVsDisjunction(t *testing.T) {
	union := Prologue + `
SELECT ?x ?l WHERE { { ?x foaf:family_name ?l . FILTER (?l < "Diff3") } UNION { ?x foaf:family_name ?l . FILTER (?l >= "Diff6") } }`
	or := Prologue + `
SELECT ?x ?l WHERE { ?x foaf:family_name ?l . FILTER (?l < "Diff3" || ?l >= "Diff6") }`
	var prev []string
	for name, m := range metamorphicMediators(t) {
		u := sortedSolutions(querySolutions(t, m, union))
		o := sortedSolutions(querySolutions(t, m, or))
		if !reflect.DeepEqual(u, o) {
			t.Errorf("%s: UNION of disjoint ranges != OR'd filter:\n%v\nvs\n%v", name, u, o)
		}
		if prev != nil && !reflect.DeepEqual(u, prev) {
			t.Errorf("%s: modes disagree on the union result", name)
		}
		prev = u
	}
}

// TestMetamorphicOptionalAlwaysFalse: an OPTIONAL group that can never
// match (a foreign-key hop pinned to a name no team has) must leave
// the solution multiset of the bare BGP exactly unchanged, since the
// projection never mentions the optional variables.
func TestMetamorphicOptionalAlwaysFalse(t *testing.T) {
	bare := Prologue + `
SELECT ?a ?l WHERE { ?a foaf:family_name ?l . }`
	opt := Prologue + `
SELECT ?a ?l WHERE { ?a foaf:family_name ?l . OPTIONAL { ?a ont:team ?t . ?t foaf:name "NoSuchTeam" . } }`
	for name, m := range metamorphicMediators(t) {
		b := querySolutions(t, m, bare)
		o := querySolutions(t, m, opt)
		if !reflect.DeepEqual(sortedSolutions(b), sortedSolutions(o)) {
			t.Errorf("%s: always-false OPTIONAL changed the solutions:\n%v\nvs\n%v", name, b, o)
		}
	}
}

// TestMetamorphicCountStar: COUNT(*) must equal the number of
// solutions the unaggregated query returns.
func TestMetamorphicCountStar(t *testing.T) {
	for _, shape := range []struct{ plain, count string }{
		{`SELECT ?x WHERE { ?x rdf:type foaf:Person . }`,
			`SELECT (COUNT(*) AS ?n) WHERE { ?x rdf:type foaf:Person . }`},
		{`SELECT ?p WHERE { ?p ont:pubYear ?y . }`,
			`SELECT (COUNT(*) AS ?n) WHERE { ?p ont:pubYear ?y . }`},
	} {
		for name, m := range metamorphicMediators(t) {
			plain := querySolutions(t, m, Prologue+shape.plain)
			count := querySolutions(t, m, Prologue+shape.count)
			if len(count) != 1 {
				t.Fatalf("%s: COUNT(*) returned %d solutions", name, len(count))
			}
			n, err := strconv.Atoi(count[0]["n"].Value)
			if err != nil {
				t.Fatalf("%s: COUNT(*) is not an integer: %v", name, count[0])
			}
			if n != len(plain) {
				t.Errorf("%s: COUNT(*) = %d but the query has %d solutions (%s)",
					name, n, len(plain), shape.plain)
			}
		}
	}
}

// TestMetamorphicLimitPrefix: LIMIT n over a tie-free ORDER BY must be
// exactly the n-prefix of the unlimited ordered result, for every n up
// to past the result size.
func TestMetamorphicLimitPrefix(t *testing.T) {
	unlimited := Prologue + `
SELECT ?a ?l WHERE { ?a foaf:family_name ?l . } ORDER BY ?l`
	seq := func(s sparql.Solutions) []string {
		out := make([]string, len(s))
		for i, b := range s {
			out[i] = b.String()
		}
		return out
	}
	for name, m := range metamorphicMediators(t) {
		full := querySolutions(t, m, unlimited)
		if len(full) == 0 {
			t.Fatalf("%s: the ordered query returned nothing to window", name)
		}
		for _, n := range []int{0, 1, 3, len(full), len(full) + 2} {
			limited := querySolutions(t, m, fmt.Sprintf("%s LIMIT %d", unlimited, n))
			want := full
			if n < len(full) {
				want = full[:n]
			}
			if !reflect.DeepEqual(seq(limited), seq(want)) {
				t.Errorf("%s: LIMIT %d is not the prefix:\n%v\nvs\n%v", name, n, limited, want)
			}
		}
	}
}
