package core

import (
	"maps"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
)

// StreamSink receives a query result incrementally. Exactly one of
// the three shapes arrives per query: Head-then-Solutions for SELECT,
// Ask for ASK, Graph for CONSTRUCT. Head is called exactly once,
// before the first Solution, including for empty results.
//
// The Binding passed to Solution is only valid for the duration of
// the call — the streaming decode path reuses one map across rows to
// keep per-row allocations flat. Sinks that retain solutions must
// copy them.
type StreamSink interface {
	Head(vars []string) error
	Solution(b sparql.Binding) error
	Ask(b bool) error
	Graph(g *rdf.Graph) error
}

// QueryStream evaluates a SPARQL query and delivers the result
// through sink instead of materializing a QueryResult. Query is a
// collecting sink over the same dispatch, so result content, order
// and error outcomes match Query on the same source.
//
// Compiled SELECT plans stream end-to-end: the sqlexec cursor pins one
// MVCC snapshot for its whole lifetime (lock-free readers never block
// writers, so a cursor held open across a concurrent MODIFY stream is
// safe and sees a single consistent version), each row decodes
// straight into a reused binding, and the sink sees solutions as the
// executor produces them — O(1) result buffering regardless of result
// size. Plans whose solution tail must see every row first (ORDER BY,
// aggregation, DISTINCT-after-sort) materialize inside the cursor and
// replay. ASK stops at the first witness row, CONSTRUCT instantiates
// its template per row into the graph it hands to the sink, and UNION
// buffers its branches for the solution-level tail.
//
// Error contract: before anything reaches the sink, a failing compiled
// route silently gives way to the next one (see dispatch); the virtual
// view's failure is authoritative. Once the sink has received Head, an
// execution error aborts the stream mid-way and is returned as-is —
// the sink has seen a valid prefix and the caller owns the truncation
// semantics (the HTTP endpoint pins them; see DESIGN.md §10).
func (m *Mediator) QueryStream(src string, sink StreamSink) error {
	return m.QueryStreamOn(src, sink, rdb.ReadTarget{})
}

// QueryStreamOn is QueryStream against a read target: every route
// pins the resolved historical or branch-head snapshot instead of the
// live head. A pinned AS OF stream is byte-stable under concurrent
// writes — the cursor's snapshot can no longer change hands mid-stream
// by definition.
func (m *Mediator) QueryStreamOn(src string, sink StreamSink, target rdb.ReadTarget) error {
	_, err := m.dispatch(src, sink, target)
	return err
}

// dispatch is the single read dispatch behind Query and QueryStream.
// It has two routes: a bound plan, lowered spec→AST by specSelect and
// run as an sqlexec cursor, else evaluation over the virtual RDF view.
// The bound plan is the memoized one; when it is missing, fails to
// bind or fails before delivery — and for every query under
// Options.DisablePlanCache — the literal query text compiles afresh,
// uncached, as a zero-slot structural plan. It returns the display SQL
// of the plan that delivered, "" for the virtual view.
func (m *Mediator) dispatch(src string, sink StreamSink, target rdb.ReadTarget) (string, error) {
	var q *sparql.Query
	literal := true // whether a literal compile may still succeed
	if m.opts.DisablePlanCache {
		var err error
		if q, err = sparql.ParseQuery(src); err != nil {
			return "", err
		}
	} else {
		cq, err := m.cachedQueryFor(src)
		if err != nil {
			return "", err
		}
		if cq.bound != nil {
			if handled, err := m.runBound(cq.plan, cq.bound, sink, target); handled {
				m.queryCompiled.Add(1)
				return cq.bound.sql, err
			}
		}
		// A structural plan already is the literal compile.
		q, literal = cq.q, !cq.rich
	}
	m.queryFallback.Add(1)
	if literal && richQueryEligible(q) {
		if p, err := m.compileRichQueryPlan(richKey(src), q); err == nil {
			if bq, err := p.bind(m, nil); err == nil {
				if handled, err := m.runBound(p, bq, sink, target); handled {
					return bq.sql, err
				}
			}
		}
	}
	return "", m.queryVirtual(q, sink, target)
}

// runBound delivers a bound plan's result through sink, reading every
// branch off one pinned snapshot of target. handled is false when
// execution failed before anything reached the sink — the caller then
// takes the next route. SELECT defers Head to the first surviving row
// (or successful completion), so head-of-stream failures still fall
// back invisibly; ASK, CONSTRUCT and UNION deliver once their cursors
// completed.
func (m *Mediator) runBound(p *QueryPlan, bq *boundQuery, sink StreamSink, target rdb.ReadTarget) (handled bool, err error) {
	delivered := false
	err = m.viewOn(target, func(tx *rdb.Tx) error {
		switch {
		case len(p.union) > 0:
			var sols sparql.Solutions
			for i := range p.union {
				branch, err := m.runParsed(tx, bq.union[i], p.union[i].bindings)
				if err != nil {
					return err
				}
				sols = append(sols, branch...)
			}
			delivered = true
			return replaySelect(p.union[0].vars, unionTail(sols, p.richQ), sink)
		case p.form == sparql.FormAsk:
			found := false
			err := m.scanSolutions(tx, bq.sel, p.sel.bindings, func(sparql.Binding) (bool, error) {
				found = true
				return false, nil // one witness decides the answer
			})
			if err != nil {
				return err
			}
			delivered = true
			return sink.Ask(found)
		case p.form == sparql.FormConstruct:
			g := rdf.NewGraph()
			err := m.scanSolutions(tx, bq.sel, p.sel.bindings, func(b sparql.Binding) (bool, error) {
				for _, tp := range bq.tmpl {
					if t, ok := tp.Instantiate(b); ok {
						g.Add(t)
					}
				}
				return true, nil
			})
			if err != nil {
				return err
			}
			delivered = true
			return sink.Graph(g)
		}
		err := m.scanSolutions(tx, bq.sel, p.sel.bindings, func(b sparql.Binding) (bool, error) {
			if !delivered {
				delivered = true
				if err := sink.Head(p.sel.vars); err != nil {
					return false, err
				}
			}
			if err := sink.Solution(b); err != nil {
				return false, err
			}
			return true, nil
		})
		if err != nil || delivered {
			return err
		}
		delivered = true
		return sink.Head(p.sel.vars)
	})
	return delivered, err
}

// scanSolutions runs a lowered SELECT as a cursor over tx and decodes
// every row into one reused binding handed to emit; emit returning
// false stops the scan. A row binding a non-nullable variable to NULL
// yields no solution, an OPTIONAL or aggregate NULL leaves its
// variable unbound.
func (m *Mediator) scanSolutions(tx *rdb.Tx, sel sqlparser.Select, bindings []varBinding, emit func(sparql.Binding) (bool, error)) error {
	b := make(sparql.Binding, len(bindings))
	return sqlexec.SelectFunc(tx, sel,
		func([]string) error { return nil },
		func(row []rdb.Value) (bool, error) {
			clear(b)
			for i, vb := range bindings {
				v := row[i]
				if v.IsNull() {
					if vb.nullable {
						continue
					}
					return true, nil
				}
				term, err := m.decodeValue(tx, vb, v)
				if err != nil {
					return false, err
				}
				b[vb.name] = term
			}
			return emit(b)
		})
}

// resultSink materializes a streamed result into a QueryResult — the
// sink Query runs the dispatch into. It copies each binding, which the
// cursor reuses across rows.
type resultSink struct{ out QueryResult }

func (c *resultSink) Head(vars []string) error {
	c.out.Form, c.out.Vars = sparql.FormSelect, vars
	return nil
}

func (c *resultSink) Solution(b sparql.Binding) error {
	c.out.Solutions = append(c.out.Solutions, maps.Clone(b))
	return nil
}

func (c *resultSink) Ask(b bool) error {
	c.out.Form, c.out.Bool = sparql.FormAsk, b
	return nil
}

func (c *resultSink) Graph(g *rdf.Graph) error {
	c.out.Form, c.out.Graph = sparql.FormConstruct, g
	return nil
}

// replaySelect feeds materialized SELECT solutions through a sink.
func replaySelect(vars []string, sols sparql.Solutions, sink StreamSink) error {
	if err := sink.Head(vars); err != nil {
		return err
	}
	for _, b := range sols {
		if err := sink.Solution(b); err != nil {
			return err
		}
	}
	return nil
}
