package sqlexec

import (
	"fmt"
	"strings"

	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlparser"
)

// evalFn is a bound expression. It evaluates over one row tuple — a
// row per table in FROM/JOIN order — with SQL three-valued logic:
// comparisons involving NULL yield NULL, which WHERE treats as not
// true.
type evalFn func(tuple [][]rdb.Value) (rdb.Value, error)

// tableMeta describes one table visible to an expression: its
// effective name (alias if given) as written and lower-cased, and its
// schema.
type tableMeta struct {
	eff    string // effective name as written
	lower  string
	schema *rdb.TableSchema
}

// singleMeta is the environment of a single-table statement (UPDATE,
// DELETE).
func singleMeta(name string, schema *rdb.TableSchema) []tableMeta {
	return []tableMeta{{eff: name, lower: strings.ToLower(name), schema: schema}}
}

// resolveRef finds the (table, column) slot a column reference names
// among the visible tables: a qualified reference looks in the first
// table with that effective name, an unqualified one must match a
// column of exactly one table. It is the executor's only name
// resolver — planning (qualifyExpr, colRefClass, locOf) and binding
// share it, so a reference the planner cannot resolve is exactly one
// that raises at evaluation time.
func resolveRef(ref sqlparser.ColRef, metas []tableMeta) (ti, ci int, err error) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for i := range metas {
			if metas[i].lower == want {
				ci := metas[i].schema.ColumnIndex(ref.Column)
				if ci < 0 {
					return -1, -1, &rdb.TableError{Table: ref.Table, Column: ref.Column}
				}
				return i, ci, nil
			}
		}
		return -1, -1, fmt.Errorf("sqlexec: unknown table or alias %q", ref.Table)
	}
	ti, ci = -1, -1
	for i := range metas {
		if c := metas[i].schema.ColumnIndex(ref.Column); c >= 0 {
			if ti >= 0 {
				return -1, -1, fmt.Errorf("sqlexec: ambiguous column %q", ref.Column)
			}
			ti, ci = i, c
		}
	}
	if ti < 0 {
		return -1, -1, fmt.Errorf("sqlexec: unknown column %q", ref.Column)
	}
	return ti, ci, nil
}

// bind compiles an expression against the tables visible where it
// runs, resolving every column reference once into a direct slot
// read. A reference that does not resolve stays unbound: it raises
// its resolution error on every evaluation that reaches it, so the
// error surfaces on exactly the rows — and in exactly the operand
// order — it always did, and never when no row gets there.
func bind(e sqlparser.Expr, metas []tableMeta) evalFn {
	switch x := e.(type) {
	case sqlparser.Lit:
		v := x.Value
		return func([][]rdb.Value) (rdb.Value, error) { return v, nil }
	case sqlparser.ColRef:
		ti, ci, err := resolveRef(x, metas)
		if err != nil {
			return fail(err)
		}
		return func(t [][]rdb.Value) (rdb.Value, error) { return t[ti][ci], nil }
	case sqlparser.Neg:
		in := bind(x.Inner, metas)
		return func(t [][]rdb.Value) (rdb.Value, error) {
			v, err := in(t)
			if err != nil || v.IsNull() {
				return rdb.Null, err
			}
			switch v.Kind {
			case rdb.KInt:
				return rdb.Int(-v.I), nil
			case rdb.KFloat:
				return rdb.Float(-v.F), nil
			}
			return rdb.Null, fmt.Errorf("sqlexec: cannot negate %s", v.Kind)
		}
	case sqlparser.Not:
		in := bind(x.Inner, metas)
		return func(t [][]rdb.Value) (rdb.Value, error) {
			v, err := in(t)
			if err != nil || v.IsNull() {
				return rdb.Null, err
			}
			if v.Kind != rdb.KBool {
				return rdb.Null, fmt.Errorf("sqlexec: NOT applied to %s", v.Kind)
			}
			return rdb.Bool(!v.B), nil
		}
	case sqlparser.IsNull:
		negate := x.Negate
		if ti, ci, ok := slotOf(x.Inner, metas); ok {
			return func(t [][]rdb.Value) (rdb.Value, error) {
				return rdb.Bool(t[ti][ci].IsNull() != negate), nil
			}
		}
		in := bind(x.Inner, metas)
		return func(t [][]rdb.Value) (rdb.Value, error) {
			v, err := in(t)
			if err != nil {
				return rdb.Null, err
			}
			return rdb.Bool(v.IsNull() != negate), nil
		}
	case sqlparser.InList:
		in, values, negate := bind(x.Inner, metas), x.Values, x.Negate
		return func(t [][]rdb.Value) (rdb.Value, error) {
			v, err := in(t)
			if err != nil || v.IsNull() {
				return rdb.Null, err
			}
			found := false
			for _, item := range values {
				if rdb.Equal(v, item) {
					found = true
					break
				}
			}
			return rdb.Bool(found != negate), nil
		}
	case sqlparser.Binary:
		return bindBinary(x, metas)
	default:
		return fail(fmt.Errorf("sqlexec: unsupported expression %T", e))
	}
}

// fail is a bound expression that always raises err.
func fail(err error) evalFn {
	return func([][]rdb.Value) (rdb.Value, error) { return rdb.Null, err }
}

func bindBinary(x sqlparser.Binary, metas []tableMeta) evalFn {
	op := x.Op
	switch op {
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		// A bound column against a literal — every pushed-down FILTER
		// bound — reads its slot directly: neither operand can fail.
		if ti, ci, ok := slotOf(x.Left, metas); ok {
			if lit, ok := x.Right.(sqlparser.Lit); ok {
				rv := lit.Value
				return func(t [][]rdb.Value) (rdb.Value, error) { return compare(op, t[ti][ci], rv) }
			}
		}
		if ti, ci, ok := slotOf(x.Right, metas); ok {
			if lit, ok := x.Left.(sqlparser.Lit); ok {
				lv := lit.Value
				return func(t [][]rdb.Value) (rdb.Value, error) { return compare(op, lv, t[ti][ci]) }
			}
		}
	}
	l, r := bind(x.Left, metas), bind(x.Right, metas)
	switch op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		// SQL three-valued AND/OR: a non-boolean operand counts as
		// unknown.
		and := op == sqlparser.OpAnd
		return func(t [][]rdb.Value) (rdb.Value, error) {
			lv, rv, err := operands(l, r, t)
			if err != nil {
				return rdb.Null, err
			}
			lb, lok := boolOf(lv)
			rb, rok := boolOf(rv)
			switch {
			case and && (lok && !lb || rok && !rb):
				return rdb.Bool(false), nil
			case !and && (lok && lb || rok && rb):
				return rdb.Bool(true), nil
			case lok && rok:
				return rdb.Bool(and), nil
			}
			return rdb.Null, nil
		}
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		return func(t [][]rdb.Value) (rdb.Value, error) {
			lv, rv, err := operands(l, r, t)
			if err != nil {
				return rdb.Null, err
			}
			return compare(op, lv, rv)
		}
	case sqlparser.OpLike:
		return func(t [][]rdb.Value) (rdb.Value, error) {
			lv, rv, err := operands(l, r, t)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return rdb.Null, err
			}
			if lv.Kind != rdb.KString || rv.Kind != rdb.KString {
				return rdb.Null, fmt.Errorf("sqlexec: LIKE requires strings")
			}
			return rdb.Bool(sqlparser.LikeToMatcher(rv.S)(lv.S)), nil
		}
	case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
		return func(t [][]rdb.Value) (rdb.Value, error) {
			lv, rv, err := operands(l, r, t)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return rdb.Null, err // NULL propagates through arithmetic
			}
			return arith(op, lv, rv)
		}
	}
	return func(t [][]rdb.Value) (rdb.Value, error) {
		lv, rv, err := operands(l, r, t)
		if err != nil || lv.IsNull() || rv.IsNull() {
			return rdb.Null, err
		}
		return rdb.Null, fmt.Errorf("sqlexec: unsupported operator %d", op)
	}
}

// operands evaluates both sides of a binary operator, left first:
// every operator — AND/OR included — sees both values, and the first
// error wins.
func operands(l, r evalFn, t [][]rdb.Value) (lv, rv rdb.Value, err error) {
	if lv, err = l(t); err != nil {
		return rdb.Null, rdb.Null, err
	}
	if rv, err = r(t); err != nil {
		return rdb.Null, rdb.Null, err
	}
	return lv, rv, nil
}

// slotOf reports the slot of a column reference that resolves.
func slotOf(e sqlparser.Expr, metas []tableMeta) (ti, ci int, ok bool) {
	cr, isRef := e.(sqlparser.ColRef)
	if !isRef {
		return -1, -1, false
	}
	ti, ci, err := resolveRef(cr, metas)
	return ti, ci, err == nil
}

// compare applies a comparison operator to two evaluated operands:
// NULL propagates, anything else orders through rdb.Compare.
func compare(op sqlparser.BinOp, l, r rdb.Value) (rdb.Value, error) {
	if l.IsNull() || r.IsNull() {
		return rdb.Null, nil
	}
	c, err := rdb.Compare(l, r)
	if err != nil {
		return rdb.Null, err
	}
	return rdb.Bool(cmpHolds(op, c)), nil
}

// cmpHolds applies a comparison operator to a Compare result.
func cmpHolds(op sqlparser.BinOp, c int) bool {
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	case sqlparser.OpGe:
		return c >= 0
	}
	return false
}

// arith applies an arithmetic operator to two non-NULL operands.
func arith(op sqlparser.BinOp, l, r rdb.Value) (rdb.Value, error) {
	lf, err := l.AsFloat()
	if err != nil {
		return rdb.Null, err
	}
	rf, err := r.AsFloat()
	if err != nil {
		return rdb.Null, err
	}
	var v float64
	switch op {
	case sqlparser.OpAdd:
		v = lf + rf
	case sqlparser.OpSub:
		v = lf - rf
	case sqlparser.OpMul:
		v = lf * rf
	case sqlparser.OpDiv:
		if rf == 0 {
			return rdb.Null, fmt.Errorf("sqlexec: division by zero")
		}
		v = lf / rf
	}
	// Integer operands keep integer typing only when the float64 result
	// converts back exactly — on overflow the conversion is
	// implementation-defined, and the SPARQL evaluator's identical guard
	// promotes to double there, so the engines stay aligned.
	if l.Kind == rdb.KInt && r.Kind == rdb.KInt && op != sqlparser.OpDiv && v == float64(int64(v)) {
		return rdb.Int(int64(v)), nil
	}
	return rdb.Float(v), nil
}

// bindAll binds a list of expressions against the same tables.
func bindAll(es []sqlparser.Expr, metas []tableMeta) []evalFn {
	out := make([]evalFn, len(es))
	for i, e := range es {
		out[i] = bind(e, metas)
	}
	return out
}

// allTrue evaluates a conjunct list in order: false at the first one
// that is not true, or the first error.
func allTrue(fs []evalFn, tuple [][]rdb.Value) (bool, error) {
	for _, f := range fs {
		v, err := f(tuple)
		if err != nil || !isTrue(v) {
			return false, err
		}
	}
	return true, nil
}

func boolOf(v rdb.Value) (bool, bool) {
	if v.Kind == rdb.KBool {
		return v.B, true
	}
	return false, false
}

func isTrue(v rdb.Value) bool { return v.Kind == rdb.KBool && v.B }
