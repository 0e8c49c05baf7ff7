package sqlbase

import (
	"fmt"
	"strings"

	"gqldb/internal/expr"
	"gqldb/internal/graph"
	"gqldb/internal/pattern"
)

// PatternToSQL emits the Figure 4.2 multi-join SQL query for a label
// pattern: one V alias per pattern node (with its label equality when the
// node has a constant label; an unlabelled node matches any vertex), one E
// alias per pattern edge (joined on the endpoints' vids), and pairwise <>
// conditions for injectivity. Only patterns whose node constraints are at
// most a constant label and whose edges and residual predicate are empty
// can be encoded — the §5 workloads, plus partially labelled patterns.
func PatternToSQL(p *pattern.Pattern) (string, error) {
	if err := p.Compile(); err != nil {
		return "", err
	}
	if p.Global != nil {
		return "", fmt.Errorf("sqlbase: pattern %s has a residual predicate; not expressible in the V/E encoding", p.Name)
	}
	m := p.Motif
	if m.NumNodes() == 0 {
		return "", fmt.Errorf("sqlbase: empty pattern")
	}
	var sel, from, where []string
	for _, n := range m.Nodes() {
		alias := fmt.Sprintf("V%d", n.ID+1)
		sel = append(sel, alias+".vid")
		from = append(from, "V AS "+alias)
		label, labelled := p.ConstLabel(n.ID)
		if conds := len(expr.Conjuncts(p.NodePred[n.ID])); conds > 1 || conds == 1 && !labelled {
			return "", fmt.Errorf("sqlbase: pattern node %s has a constraint other than its label; not expressible in the V/E encoding", n.Name)
		}
		if labelled {
			where = append(where, fmt.Sprintf("%s.label = '%s'", alias, strings.ReplaceAll(label, "'", "''")))
		}
	}
	for _, e := range m.Edges() {
		alias := fmt.Sprintf("E%d", e.ID+1)
		from = append(from, "E AS "+alias)
		where = append(where,
			fmt.Sprintf("V%d.vid = %s.vid1", e.From+1, alias),
			fmt.Sprintf("V%d.vid = %s.vid2", e.To+1, alias),
		)
	}
	for i := 0; i < m.NumNodes(); i++ {
		for j := i + 1; j < m.NumNodes(); j++ {
			where = append(where, fmt.Sprintf("V%d.vid <> V%d.vid", i+1, j+1))
		}
	}
	q := "SELECT " + strings.Join(sel, ", ") + "\nFROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		q += "\nWHERE " + strings.Join(where, "\n  AND ")
	}
	return q + ";", nil
}

// MatchPattern runs a pattern through the SQL engine: translate, plan,
// execute. Rows are node-ID tuples in pattern-node order. Limit > 0 caps
// the result (the harness's 1000-hit cutoff); 0 is unlimited.
func (db *DB) MatchPattern(p *pattern.Pattern, limit int) ([][]graph.Value, error) {
	q, err := PatternToSQL(p)
	if err != nil {
		return nil, err
	}
	st, err := ParseSQL(q)
	if err != nil {
		return nil, err
	}
	return db.ExecLimit(st, limit)
}
