// Package datalog implements a positive Datalog engine with comparison
// built-ins (semi-naive bottom-up evaluation) and the §3.5 translations
// that place GraphQL inside Datalog (Theorem 4.6): graphs become facts
// (Figure 4.14) and graph patterns become rules (Figure 4.15).
package datalog

import (
	"fmt"
	"strconv"
	"strings"

	"gqldb/internal/graph"
)

// Term is a variable (Var non-empty) or a constant.
type Term struct {
	Var   string
	Const graph.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v graph.Value) Term { return Term{Const: v} }

// CS returns a string-constant term.
func CS(s string) Term { return C(graph.String(s)) }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return t.Const.String()
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// CmpOp is a comparison operator for built-ins.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Builtin is a comparison between two terms; it can only be evaluated once
// both sides are bound.
type Builtin struct {
	Op   CmpOp
	L, R Term
}

// Rule is Head :- Body, Builtins.
type Rule struct {
	Head     Atom
	Body     []Atom
	Builtins []Builtin
}

func (r Rule) String() string {
	var parts []string
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, b := range r.Builtins {
		ops := [...]string{"==", "!=", "<", "<=", ">", ">="}
		parts = append(parts, b.L.String()+" "+ops[b.Op]+" "+b.R.String())
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// DB holds facts grouped by predicate, deduplicated, with lazily-built
// per-argument hash indexes used by the join.
type DB struct {
	facts map[string][][]graph.Value
	seen  map[string]bool
	// index maps (pred, argpos, value-key) to the facts with that value
	// at that position; built on first probe of (pred, argpos) and kept
	// fresh by Assert.
	index   map[string]map[string][][]graph.Value
	indexed map[string]bool
}

// NewDB returns an empty fact database.
func NewDB() *DB {
	return &DB{
		facts:   map[string][][]graph.Value{},
		seen:    map[string]bool{},
		index:   map[string]map[string][][]graph.Value{},
		indexed: map[string]bool{},
	}
}

func posKey(pred string, pos int) string {
	return pred + "\x00" + strconv.Itoa(pos)
}

// probe returns the facts of pred whose argument at pos equals v, building
// the (pred, pos) index on first use.
func (db *DB) probe(pred string, pos int, v graph.Value) [][]graph.Value {
	pk := posKey(pred, pos)
	if !db.indexed[pk] {
		db.indexed[pk] = true
		m := map[string][][]graph.Value{}
		for _, f := range db.facts[pred] {
			if pos < len(f) {
				k := f[pos].String()
				m[k] = append(m[k], f)
			}
		}
		db.index[pk] = m
	}
	return db.index[pk][v.String()]
}

func factKey(pred string, args []graph.Value) string {
	var b strings.Builder
	b.WriteString(pred)
	for _, v := range args {
		b.WriteByte('\x00')
		b.WriteString(v.String())
	}
	return b.String()
}

// Assert adds a ground fact; reports whether it was new.
func (db *DB) Assert(pred string, args ...graph.Value) bool {
	k := factKey(pred, args)
	if db.seen[k] {
		return false
	}
	db.seen[k] = true
	db.facts[pred] = append(db.facts[pred], args)
	// Keep any built indexes fresh.
	for pos := range args {
		pk := posKey(pred, pos)
		if db.indexed[pk] {
			vk := args[pos].String()
			db.index[pk][vk] = append(db.index[pk][vk], args)
		}
	}
	return true
}

// Facts returns the facts for a predicate.
func (db *DB) Facts(pred string) [][]graph.Value { return db.facts[pred] }

// Count returns the number of facts for a predicate.
func (db *DB) Count(pred string) int { return len(db.facts[pred]) }

// binding maps variable names to values.
type binding map[string]graph.Value

// matchAtom extends b to make the atom equal the fact; nil if impossible.
func matchAtom(a Atom, fact []graph.Value, b binding) binding {
	if len(a.Args) != len(fact) {
		return nil
	}
	out := b
	copied := false
	for i, t := range a.Args {
		if !t.IsVar() {
			if !t.Const.Equal(fact[i]) {
				return nil
			}
			continue
		}
		if v, ok := out[t.Var]; ok {
			if !v.Equal(fact[i]) {
				return nil
			}
			continue
		}
		if !copied {
			nb := make(binding, len(out)+1)
			for k, v := range out {
				nb[k] = v
			}
			out = nb
			copied = true
		}
		out[t.Var] = fact[i]
	}
	if !copied && len(a.Args) > 0 {
		// All args were bound/constant: return the original binding.
		return b
	}
	return out
}

func resolve(t Term, b binding) (graph.Value, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := b[t.Var]
	return v, ok
}

func evalBuiltin(bi Builtin, b binding) (bool, error) {
	l, ok1 := resolve(bi.L, b)
	r, ok2 := resolve(bi.R, b)
	if !ok1 || !ok2 {
		return false, fmt.Errorf("datalog: builtin with unbound variable: %v", bi)
	}
	c, err := l.Compare(r)
	if err != nil {
		// Incomparable values: != succeeds, the rest fail.
		return bi.Op == Ne, nil
	}
	switch bi.Op {
	case Eq:
		return c == 0, nil
	case Ne:
		return c != 0, nil
	case Lt:
		return c < 0, nil
	case Le:
		return c <= 0, nil
	case Gt:
		return c > 0, nil
	case Ge:
		return c >= 0, nil
	}
	return false, fmt.Errorf("datalog: unknown builtin op %d", bi.Op)
}

// Eval runs semi-naive bottom-up evaluation of the rules over db until
// fixpoint, asserting derived facts into db. It returns the number of new
// facts derived.
func Eval(db *DB, rules []Rule) (int, error) {
	total := 0
	emitHead := func(r Rule, next map[string][][]graph.Value) func(binding) error {
		return func(b binding) error {
			args := make([]graph.Value, len(r.Head.Args))
			for i, t := range r.Head.Args {
				v, ok := resolve(t, b)
				if !ok {
					return fmt.Errorf("datalog: unbound head variable %s in %v", t.Var, r)
				}
				args[i] = v
			}
			if db.Assert(r.Head.Pred, args...) {
				next[r.Head.Pred] = append(next[r.Head.Pred], args)
				total++
			}
			return nil
		}
	}
	// Round 0: every rule joins once over the full database (deltaIdx -1:
	// no atom restricted). Later rounds are properly semi-naive: at least
	// one body atom ranges over the previous round's new facts.
	delta := map[string][][]graph.Value{}
	for _, r := range rules {
		if err := joinBody(db, r, -1, nil, emitHead(r, delta)); err != nil {
			return total, err
		}
	}
	for round := 1; len(delta) > 0; round++ {
		next := map[string][][]graph.Value{}
		for _, r := range rules {
			for di := range r.Body {
				if len(delta[r.Body[di].Pred]) == 0 {
					continue
				}
				if err := joinBody(db, r, di, delta, emitHead(r, next)); err != nil {
					return total, err
				}
			}
		}
		delta = next
		if round > 1_000_000 {
			return total, fmt.Errorf("datalog: evaluation did not converge")
		}
	}
	return total, nil
}

// joinBody enumerates bindings of the rule body where atom deltaIdx ranges
// over delta facts and the others over the full database. Built-ins are
// evaluated as soon as all their variables are bound, pruning the join
// early (injectivity and attribute comparisons would otherwise only fire
// after the full cross product).
func joinBody(db *DB, r Rule, deltaIdx int, delta map[string][][]graph.Value, emit func(binding) error) error {
	// readyAt[i] lists the built-ins that become fully bound right after
	// body atom i is matched (position -1: no-variable built-ins).
	bound := map[string]bool{}
	readyAt := make([][]Builtin, len(r.Body))
	var immediate []Builtin
	pending := append([]Builtin(nil), r.Builtins...)
	place := func(i int) {
		kept := pending[:0]
		for _, bi := range pending {
			ok := true
			for _, t := range []Term{bi.L, bi.R} {
				if t.IsVar() && !bound[t.Var] {
					ok = false
					break
				}
			}
			if ok {
				if i < 0 {
					immediate = append(immediate, bi)
				} else {
					readyAt[i] = append(readyAt[i], bi)
				}
			} else {
				kept = append(kept, bi)
			}
		}
		pending = kept
	}
	place(-1)
	for i, a := range r.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Var] = true
			}
		}
		place(i)
	}
	if len(pending) > 0 {
		return fmt.Errorf("datalog: builtin with unbound variable in %v", r)
	}
	for _, bi := range immediate {
		ok, err := evalBuiltin(bi, binding{})
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}

	var rec func(i int, b binding) error
	rec = func(i int, b binding) error {
		if i == len(r.Body) {
			return emit(b)
		}
		a := r.Body[i]
		var facts [][]graph.Value
		if i == deltaIdx {
			facts = delta[a.Pred]
		} else {
			// Probe indexes on every constant or bound argument and scan
			// the smallest bucket (the graph constant at position 0 is
			// bound but useless; the node variable buckets are tiny).
			facts = db.facts[a.Pred]
			for pos, t := range a.Args {
				var v graph.Value
				if !t.IsVar() {
					v = t.Const
				} else if bv, ok := b[t.Var]; ok {
					v = bv
				} else {
					continue
				}
				if bucket := db.probe(a.Pred, pos, v); len(bucket) < len(facts) {
					facts = bucket
				}
			}
		}
	nextFact:
		for _, f := range facts {
			nb := matchAtom(a, f, b)
			if nb == nil {
				continue
			}
			for _, bi := range readyAt[i] {
				ok, err := evalBuiltin(bi, nb)
				if err != nil {
					return err
				}
				if !ok {
					continue nextFact
				}
			}
			if err := rec(i+1, nb); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, binding{})
}

// Query evaluates a one-off conjunctive query (body atoms + builtins)
// against the database and returns the bindings of the given variables.
func Query(db *DB, body []Atom, builtins []Builtin, vars []string) ([][]graph.Value, error) {
	r := Rule{Head: Atom{Pred: "_q"}, Body: body, Builtins: builtins}
	var out [][]graph.Value
	seen := map[string]bool{}
	err := joinBody(db, r, -1, nil, func(b binding) error {
		row := make([]graph.Value, len(vars))
		for i, v := range vars {
			val, ok := b[v]
			if !ok {
				return fmt.Errorf("datalog: query variable %s unbound", v)
			}
			row[i] = val
		}
		k := factKey("", row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
		return nil
	})
	return out, err
}
