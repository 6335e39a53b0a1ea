package schema

import (
	"fmt"
	"sort"

	"xmlsql/internal/relational"
)

// RelationDef is the derived definition of one shredded relation.
type RelationDef struct {
	Name string
	// CondColumns are columns materialized from edge conditions
	// ("parentcode", "pc", "tag"), with their inferred kinds.
	CondColumns []relational.Column
	// ValueColumns hold element text values.
	ValueColumns []relational.Column
}

// TableSchema renders the relation as a table schema: id (pk), parentid,
// then condition columns, then value columns, all in deterministic order.
func (r *RelationDef) TableSchema() *relational.TableSchema {
	cols := []relational.Column{
		{Name: IDColumn, Kind: relational.KindInt},
		{Name: ParentIDColumn, Kind: relational.KindInt},
	}
	cols = append(cols, r.CondColumns...)
	cols = append(cols, r.ValueColumns...)
	return &relational.TableSchema{Name: r.Name, Columns: cols, PrimaryKey: IDColumn}
}

// DeriveRelations computes the relational schema implied by the mapping
// annotations: one relation per distinct node annotation, carrying every
// condition column appearing on edges owned by the relation and every value
// column stored into it. Kinds are inferred from the condition literals;
// value columns are VARCHAR. The answer is computed once and shared: callers
// must not modify it.
func (s *Schema) DeriveRelations() (map[string]*RelationDef, error) {
	c := &s.comp
	c.relOnce.Do(func() { c.defs, c.defsErr = s.deriveRelations() })
	return c.defs, c.defsErr
}

func (s *Schema) deriveRelations() (map[string]*RelationDef, error) {
	defs := map[string]*RelationDef{}
	get := func(name string) *RelationDef {
		d, ok := defs[name]
		if !ok {
			d = &RelationDef{Name: name}
			defs[name] = d
		}
		return d
	}

	for _, n := range s.nodes {
		if n.HasRelation() {
			d := get(n.Relation)
			for _, c := range n.Conds {
				if err := addColumn(d, c.Column, c.Value.Kind(), true); err != nil {
					return nil, fmt.Errorf("schema %s: %v", s.Name, err)
				}
			}
		}
	}

	// Condition columns: each annotated edge's condition lands in the
	// relation owning the edge target. "Owning" follows unannotated chains
	// downward: the condition applies to the next relation-annotated node at
	// or below the target on any path. Collect the set of such relations.
	for _, e := range s.Edges() {
		if e.Cond == nil {
			continue
		}
		owners := map[string]bool{}
		s.collectDownstreamRelations(e.To, map[NodeID]bool{}, owners)
		if len(owners) == 0 {
			return nil, fmt.Errorf("schema %s: edge condition %s has no owning relation", s.Name, e.Cond)
		}
		for rel := range owners {
			if err := addColumn(get(rel), e.Cond.Column, e.Cond.Value.Kind(), true); err != nil {
				return nil, fmt.Errorf("schema %s: %v", s.Name, err)
			}
		}
	}

	// Value columns. Column == IDColumn is the elemid convention: the node
	// exposes the owning relation's existing id column (the paper's queries
	// Q4–Q7 end in "/elemid"); no new column is created.
	for _, n := range s.nodes {
		if n.Column == "" || n.Column == IDColumn {
			continue
		}
		rel, err := s.OwnerRelation(n.ID)
		if err != nil {
			return nil, err
		}
		if err := addColumn(get(rel), n.Column, relational.KindString, false); err != nil {
			return nil, fmt.Errorf("schema %s: %v", s.Name, err)
		}
	}

	for _, d := range defs {
		sortColumns(d.CondColumns)
		sortColumns(d.ValueColumns)
	}
	return defs, nil
}

// collectDownstreamRelations gathers the relations of the nearest
// relation-annotated nodes at or below id.
func (s *Schema) collectDownstreamRelations(id NodeID, seen map[NodeID]bool, out map[string]bool) {
	if seen[id] {
		return
	}
	seen[id] = true
	n := s.nodes[id]
	if n.HasRelation() {
		out[n.Relation] = true
		return
	}
	for _, e := range n.children {
		s.collectDownstreamRelations(e.To, seen, out)
	}
}

func addColumn(d *RelationDef, name string, kind relational.Kind, cond bool) error {
	if name == IDColumn || name == ParentIDColumn {
		return fmt.Errorf("relation %s: column %s is reserved", d.Name, name)
	}
	target := &d.ValueColumns
	other := &d.CondColumns
	if cond {
		target, other = other, target
	}
	for _, c := range *other {
		if c.Name == name {
			return fmt.Errorf("relation %s: column %s used both as condition and value column", d.Name, name)
		}
	}
	for _, c := range *target {
		if c.Name == name {
			if c.Kind != kind {
				return fmt.Errorf("relation %s: column %s has conflicting kinds %v and %v", d.Name, name, c.Kind, kind)
			}
			return nil
		}
	}
	*target = append(*target, relational.Column{Name: name, Kind: kind})
	return nil
}

func sortColumns(cols []relational.Column) {
	sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
}

// CreateTables registers every derived relation in the store.
func (s *Schema) CreateTables(store *relational.Store) error {
	defs, err := s.DeriveRelations()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := store.CreateTable(defs[n].TableSchema()); err != nil {
			return err
		}
	}
	return nil
}
