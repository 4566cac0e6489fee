package core

import (
	"fmt"
	"sort"
	"strings"

	"ontoaccess/internal/feedback"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sqlgen"
	"ontoaccess/internal/update"
)

// stmtKind classifies planned statements for sorting.
type stmtKind int

const (
	kindInsert stmtKind = iota
	kindUpdate
	kindDelete
)

// plannedStmt is one generated SQL statement with the context needed
// for sorting (Algorithm 1 step five) and for rich error feedback.
type plannedStmt struct {
	sql     string
	table   string
	kind    stmtKind
	subject string
	// seq preserves generation order for stable sorting.
	seq int
}

// subjectGroup is Algorithm 1 step one's unit: all triples sharing a
// subject.
type subjectGroup struct {
	subject rdf.Term
	triples []rdf.Triple
}

// groupTriples implements Algorithm 1 step one, with deterministic
// group order (sorted by subject) and stable triple order inside each
// group.
func groupTriples(triples []rdf.Triple) []subjectGroup {
	byS := make(map[rdf.Term][]rdf.Triple)
	var order []rdf.Term
	for _, t := range triples {
		if _, seen := byS[t.S]; !seen {
			order = append(order, t.S)
		}
		byS[t.S] = append(byS[t.S], t)
	}
	sort.Slice(order, func(i, j int) bool { return rdf.CompareTerms(order[i], order[j]) < 0 })
	out := make([]subjectGroup, len(order))
	for i, s := range order {
		out[i] = subjectGroup{subject: s, triples: byS[s]}
	}
	return out
}

// partitionedGroup is a subject group split by mapping role.
type partitionedGroup struct {
	ent *subjectEntity
	// attrValues maps column names to converted values from data /
	// object-property triples, with the property that supplied each.
	attrValues map[string]rdb.Value
	attrProps  map[string]string
	// links are resolved link-table rows (property -> object keys).
	links []resolvedLink
	// hasType records an "s rdf:type Class" triple.
	hasType bool
}

type resolvedLink struct {
	lt       *r3m.LinkTableMap
	property string
	subjKey  rdb.Value
	objKey   rdb.Value
	objTable string
}

// partitionGroup implements Algorithm 1 steps two and three for one
// group: identify the table, resolve every triple against the
// mapping, convert objects to column values, and reject triples that
// do not fit the mapping (part of "check").
func (m *Mediator) partitionGroup(tx *rdb.Tx, g subjectGroup) (*partitionedGroup, error) {
	ent, err := m.resolveSubject(tx, g.subject)
	if err != nil {
		return nil, err
	}
	pg := &partitionedGroup{
		ent:        ent,
		attrValues: make(map[string]rdb.Value),
		attrProps:  make(map[string]string),
	}
	for _, tr := range g.triples {
		if !tr.P.IsIRI() {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: ent.uri, Value: tr.P.String(),
				Hint: "predicates must be IRIs",
			}
		}
		prop := tr.P.Value
		// rdf:type triples assert class membership.
		if prop == rdf.RDFType {
			if tr.O != ent.tm.Class {
				return nil, &feedback.Violation{
					Constraint: "Mapping", Subject: ent.uri, Property: prop, Value: tr.O.String(),
					Hint: fmt.Sprintf("subjects matching pattern %q belong to class %s", ent.tm.URIPattern, ent.tm.Class),
				}
			}
			pg.hasType = true
			continue
		}
		// Link-table property?
		if lt, ok := m.mapping.LinkTableForProperty(tr.P); ok {
			link, err := m.resolveLink(tx, lt, ent, tr)
			if err != nil {
				return nil, err
			}
			pg.links = append(pg.links, *link)
			continue
		}
		// Plain attribute of the subject's table.
		am, ok := ent.tm.AttributeForProperty(tr.P)
		if !ok {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: ent.uri, Property: prop,
				Hint: fmt.Sprintf("class %s has no attribute mapped to this property", ent.tm.Class),
			}
		}
		col, _ := ent.schema.Column(am.Name)
		val, err := m.tripleObjectToValue(tx, tr.O, am, col, ent.uri, prop)
		if err != nil {
			return nil, err
		}
		if prev, dup := pg.attrValues[am.Name]; dup && !rdb.Equal(prev, val) {
			return nil, &feedback.Violation{
				Constraint: "Mapping", Subject: ent.uri, Property: prop,
				Table: ent.tm.Name, Column: am.Name, Value: val.Text(),
				Hint: "the relational model stores one value per attribute; remove the conflicting triple",
			}
		}
		pg.attrValues[am.Name] = val
		pg.attrProps[am.Name] = prop
	}
	return pg, nil
}

// tripleObjectToValue converts a triple object by attribute flavour:
// foreign key, IRI-valued (valuePrefix), or data literal.
func (m *Mediator) tripleObjectToValue(tx *rdb.Tx, o rdf.Term, am *r3m.AttributeMap, col *rdb.Column, subject, property string) (rdb.Value, error) {
	if ref, isFK := am.ForeignKeyRef(); isFK {
		refTM, _ := m.mapping.ResolveTableRef(ref)
		return m.objectToKeyValue(tx, o, refTM, subject, property)
	}
	if am.IsObject {
		if !o.IsIRI() {
			return rdb.Null, &feedback.Violation{
				Constraint: "Mapping", Subject: subject, Property: property, Value: o.String(),
				Hint: "this property requires an IRI object",
			}
		}
		val := o.Value
		if am.ValuePrefix != "" {
			if !strings.HasPrefix(val, am.ValuePrefix) {
				return rdb.Null, &feedback.Violation{
					Constraint: "Mapping", Subject: subject, Property: property, Value: val,
					Hint: fmt.Sprintf("object IRIs for this property must start with %q", am.ValuePrefix),
				}
			}
			val = strings.TrimPrefix(val, am.ValuePrefix)
		}
		return rdb.String_(val), nil
	}
	return literalToValue(o, col, subject, property)
}

// resolveLink resolves a link-table triple into subject/object keys.
func (m *Mediator) resolveLink(tx *rdb.Tx, lt *r3m.LinkTableMap, ent *subjectEntity, tr rdf.Triple) (*resolvedLink, error) {
	subjRef, _ := lt.SubjectAttr.ForeignKeyRef()
	subjTM, _ := m.mapping.ResolveTableRef(subjRef)
	objRef, _ := lt.ObjectAttr.ForeignKeyRef()
	objTM, _ := m.mapping.ResolveTableRef(objRef)
	if subjTM == nil || objTM == nil {
		return nil, fmt.Errorf("core: link table %q has unresolved references", lt.Name)
	}
	if ent.tm.Name != subjTM.Name {
		return nil, &feedback.Violation{
			Constraint: "Mapping", Subject: ent.uri, Property: lt.Property.Value,
			Hint: fmt.Sprintf("subjects of this property must be instances of %s (table %q)", subjTM.Class, subjTM.Name),
		}
	}
	objKey, err := m.objectToKeyValue(tx, tr.O, objTM, ent.uri, lt.Property.Value)
	if err != nil {
		return nil, err
	}
	return &resolvedLink{
		lt: lt, property: lt.Property.Value,
		subjKey: ent.pkVal, objKey: objKey, objTable: objTM.Name,
	}, nil
}

// execInsertData implements Algorithm 1 for INSERT DATA.
func (m *Mediator) execInsertData(tx *rdb.Tx, op update.InsertData) (*OpResult, error) {
	res := &OpResult{Operation: op.Kind()}
	var stmts []plannedStmt
	seq := 0
	for _, g := range groupTriples(op.Triples) {
		pg, err := m.partitionGroup(tx, g)
		if err != nil {
			return res, err
		}
		ent := pg.ent
		// Existence probe decides INSERT vs UPDATE (Section 5.1).
		_, _, exists, err := tx.LookupPK(ent.tm.Name, []rdb.Value{ent.pkVal})
		if err != nil {
			return res, err
		}
		switch {
		case exists && len(pg.attrValues) > 0:
			var set []sqlgen.Assign
			for _, name := range sortedKeys(pg.attrValues) {
				set = append(set, sqlgen.Assign{Column: name, Value: pg.attrValues[name]})
			}
			stmts = append(stmts, plannedStmt{
				sql:   sqlgen.Update(ent.tm.Name, set, []sqlgen.Cond{{Column: ent.pkName, Value: ent.pkVal}}),
				table: ent.tm.Name, kind: kindUpdate, subject: ent.uri, seq: seq,
			})
			seq++
		case !exists:
			// Check step: every NotNull attribute without a default
			// must be supplied (paper Section 5.1 step three).
			if err := m.checkMandatoryAttributes(pg); err != nil {
				return res, err
			}
			cols := []string{ent.pkName}
			vals := []rdb.Value{ent.pkVal}
			// Column order follows the schema for readable SQL.
			for _, col := range ent.schema.Columns {
				if strings.EqualFold(col.Name, ent.pkName) {
					continue
				}
				if v, ok := pg.attrValues[col.Name]; ok {
					cols = append(cols, col.Name)
					vals = append(vals, v)
				}
			}
			stmts = append(stmts, plannedStmt{
				sql:   sqlgen.Insert(ent.tm.Name, cols, vals),
				table: ent.tm.Name, kind: kindInsert, subject: ent.uri, seq: seq,
			})
			seq++
		}
		// Link-table rows: idempotent inserts (RDF set semantics).
		for _, link := range pg.links {
			dup, err := m.linkRowExists(tx, link)
			if err != nil {
				return res, err
			}
			if dup {
				continue
			}
			stmts = append(stmts, plannedStmt{
				sql: sqlgen.Insert(link.lt.Name,
					[]string{link.lt.SubjectAttr.Name, link.lt.ObjectAttr.Name},
					[]rdb.Value{link.subjKey, link.objKey}),
				table: link.lt.Name, kind: kindInsert, subject: ent.uri, seq: seq,
			})
			seq++
		}
	}
	// Step five: sort by foreign-key dependencies; step six: execute.
	sorted, err := m.sortStatements(tx, stmts)
	if err != nil {
		return res, err
	}
	return res, m.executeStatements(tx, sorted, res)
}

// checkMandatoryAttributes rejects inserts that omit NotNull
// attributes without defaults — detected from the mapping before any
// SQL reaches the database, enabling property-level feedback.
func (m *Mediator) checkMandatoryAttributes(pg *partitionedGroup) error {
	am := firstMissingMandatory(pg.ent.tm, func(name string) bool {
		_, ok := pg.attrValues[name]
		return ok
	})
	if am == nil {
		return nil
	}
	return mandatoryViolation(pg.ent.tm.Name, pg.ent.uri, am)
}

// firstMissingMandatory returns the first NotNull attribute without a
// default (primary keys excluded) that the supplied set omits —
// shared by the uncompiled path and the compiled-plan executor.
func firstMissingMandatory(tm *r3m.TableMap, supplied func(string) bool) *r3m.AttributeMap {
	for _, am := range tm.Attributes {
		if !am.HasConstraint(r3m.ConstraintNotNull) || am.HasConstraint(r3m.ConstraintPrimaryKey) {
			continue
		}
		if _, hasDefault := am.DefaultValue(); hasDefault {
			continue
		}
		if !supplied(am.Name) {
			return am
		}
	}
	return nil
}

// mandatoryViolation is the shared feedback for a missing mandatory
// property.
func mandatoryViolation(table, subject string, am *r3m.AttributeMap) error {
	return &feedback.Violation{
		Constraint: "NotNull", Table: table, Column: am.Name,
		Subject: subject, Property: propertyOf(am),
		Hint: "the request must include a triple for this mandatory property",
	}
}

func propertyOf(am *r3m.AttributeMap) string {
	if am.Property.IsZero() {
		return ""
	}
	return am.Property.Value
}

// linkRowExists probes for an existing link row, lowering the probe
// SELECT straight to the executor's AST.
func (m *Mediator) linkRowExists(tx *rdb.Tx, link resolvedLink) (bool, error) {
	sel, err := specSelect(&sqlgen.SelectSpec{
		Columns: []string{link.lt.SubjectAttr.Name},
		From:    link.lt.Name,
		Where: []sqlgen.WhereSpec{
			{Column: link.lt.SubjectAttr.Name, Value: link.subjKey},
			{Column: link.lt.ObjectAttr.Name, Value: link.objKey},
		},
		Limit:  -1,
		Offset: -1,
	})
	if err != nil {
		return false, err
	}
	rs, err := sqlexec.Select(tx, sel)
	if err != nil {
		return false, err
	}
	return len(rs.Rows) > 0, nil
}

// executeStatements runs planned statements through the SQL front-end
// inside the operation's transaction, enriching engine errors with
// subject context.
func (m *Mediator) executeStatements(tx *rdb.Tx, stmts []plannedStmt, res *OpResult) error {
	for _, st := range stmts {
		res.SQL = append(res.SQL, st.sql)
		r, err := sqlexec.ExecSQL(tx, st.sql)
		if err != nil {
			if ce, ok := asConstraintError(err); ok {
				return feedback.FromConstraintError(ce, st.subject, "")
			}
			return err
		}
		res.RowsAffected += r.RowsAffected
	}
	return nil
}

func asConstraintError(err error) (*rdb.ConstraintError, bool) {
	for e := err; e != nil; {
		if ce, ok := e.(*rdb.ConstraintError); ok {
			return ce, true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		e = u.Unwrap()
	}
	return nil, false
}

func sortedKeys(mp map[string]rdb.Value) []string {
	out := make([]string, 0, len(mp))
	for k := range mp {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
