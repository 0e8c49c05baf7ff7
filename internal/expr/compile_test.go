package expr

import (
	"testing"

	"gqldb/internal/graph"
)

// compileEnv is an allocation-free Env for the benchmark and the zero-alloc
// guard: a pointer receiver resolving two fixed attributes.
type compileEnv struct {
	year graph.Value
	name graph.Value
}

func (c *compileEnv) Resolve(parts []string) (graph.Value, error) {
	switch parts[len(parts)-1] {
	case "year":
		return c.year, nil
	case "name":
		return c.name, nil
	}
	return graph.Null, nil
}

// TestCompileEquivalence drives Compile through every operator family and
// checks the closure agrees with the tree-walking Eval on value and error
// presence.
func TestCompileEquivalence(t *testing.T) {
	env := MapEnv{
		"x":      graph.Int(10),
		"f":      graph.Float(2.5),
		"s":      graph.String("abc"),
		"b":      graph.Bool(true),
		"v.year": graph.Int(2006),
	}
	exprs := []Expr{
		lit(5),
		name("x"),
		name("v", "year"),
		name("v", "missing"), // known root, missing attribute -> Null
		bin(OpAdd, name("x"), lit(1)),
		bin(OpSub, name("f"), lit(0.5)),
		bin(OpMul, name("x"), name("x")),
		bin(OpDiv, name("x"), lit(0)), // runtime error must survive compilation
		bin(OpEq, name("s"), lit("abc")),
		bin(OpNe, name("x"), lit("10")), // incomparable kinds
		bin(OpLt, name("x"), lit(11)),
		bin(OpLe, lit(10), name("x")), // const-left comparison
		bin(OpGt, name("f"), lit(2.0)),
		bin(OpGe, name("x"), name("x")),
		bin(OpAnd, name("b"), bin(OpGt, name("x"), lit(5))),
		bin(OpOr, bin(OpEq, name("s"), lit("zz")), name("b")),
		bin(OpAnd, lit(false), name("nope")),             // short-circuit skips unknown root
		bin(OpOr, lit(true), bin(OpDiv, lit(1), lit(0))), // short-circuit skips error
		bin(OpAnd, lit(true), bin(OpGt, name("x"), lit(9))),
		bin(OpAdd, bin(OpMul, lit(2), lit(3)), lit(4)), // fully constant: folded
		name("unknown"),                                // unknown root -> error
		bin(OpEq, name("unknown"), lit(1)),
	}
	for _, e := range exprs {
		want, werr := e.Eval(env)
		got, gerr := Compile(e)(env)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: compiled error %v, Eval error %v", e, gerr, werr)
			continue
		}
		if werr == nil && want.String() != got.String() {
			t.Errorf("%s: compiled %s, Eval %s", e, got, want)
		}
	}
}

// TestCompileConstantFolding pins the folding rules: a name-free subtree
// that evaluates cleanly becomes a constant, but an erroring constant
// (division by zero) must NOT be folded away — the error is part of the
// expression's runtime semantics.
func TestCompileConstantFolding(t *testing.T) {
	// Whole-expression fold: evaluation needs no env at all.
	v, err := Compile(bin(OpAdd, lit(2), bin(OpMul, lit(3), lit(4))))(nil)
	if err != nil || v.AsInt() != 14 {
		t.Errorf("folded constant = %v, %v; want 14", v, err)
	}
	// Erroring constant: the compiled form must surface the error when run,
	// not at compile time and not silently.
	if _, err := Compile(bin(OpDiv, lit(1), lit(0)))(nil); err == nil {
		t.Error("1/0 compiled to a non-erroring closure")
	}
	// But a short-circuit that hides the erroring side hides it compiled too.
	if v, err := Compile(bin(OpOr, lit(true), bin(OpDiv, lit(1), lit(0))))(nil); err != nil || !v.AsBool() {
		t.Errorf("true | 1/0 = %v, %v; want true", v, err)
	}
}

// TestCompilePredNil pins the trivially-true contract: a nil expression
// compiles to a nil Pred, and Compile(nil) evaluates to Null.
func TestCompilePredNil(t *testing.T) {
	if p := CompilePred(nil); p != nil {
		t.Error("CompilePred(nil) != nil")
	}
	if v, err := Compile(nil)(nil); err != nil || !v.IsNull() {
		t.Errorf("Compile(nil)() = %v, %v; want Null", v, err)
	}
}

// TestMapEnvUnknownRoot is the regression test for the Resolve contract:
// an unknown variable root is an error (a typo'd binding must not silently
// satisfy or fail predicates), while a missing attribute of a known
// variable resolves to Null without error.
func TestMapEnvUnknownRoot(t *testing.T) {
	env := MapEnv{"v1.name": graph.String("A"), "x": graph.Int(1)}
	if _, err := env.Resolve([]string{"nope"}); err == nil {
		t.Error("unknown root resolved without error")
	}
	if _, err := env.Resolve([]string{"nope", "attr"}); err == nil {
		t.Error("unknown qualified root resolved without error")
	}
	if v, err := env.Resolve([]string{"v1", "missing"}); err != nil || !v.IsNull() {
		t.Errorf("missing attribute of known root = %v, %v; want Null, nil", v, err)
	}
	if v, err := env.Resolve([]string{"x"}); err != nil || v.AsInt() != 1 {
		t.Errorf("bound root = %v, %v; want 1", v, err)
	}
	if _, err := env.Resolve(nil); err == nil {
		t.Error("empty qualified name resolved without error")
	}
	// Through Eval: an unknown root errors, and Holds propagates it.
	if _, err := name("nope").Eval(env); err == nil {
		t.Error("Eval over unknown root did not error")
	}
	if _, err := Holds(bin(OpEq, name("nope"), lit(1)), env); err == nil {
		t.Error("Holds over unknown root did not error")
	}
}

// TestConjunctsIndependence pins the accumulator rewrite: conjuncts come
// back in left-to-right order, and the returned slice shares no storage
// across calls (the old left-deep append could alias one call's backing
// array into another's).
func TestConjunctsIndependence(t *testing.T) {
	a, b, c, d := name("a"), name("b"), name("c"), name("d")
	e := bin(OpAnd, bin(OpAnd, bin(OpAnd, a, b), c), d)
	cs := Conjuncts(e)
	if len(cs) != 4 {
		t.Fatalf("len = %d, want 4", len(cs))
	}
	for i, want := range []Expr{a, b, c, d} {
		if cs[i].String() != want.String() {
			t.Errorf("conjunct %d = %s, want %s", i, cs[i], want)
		}
	}
	// Right-deep and mixed trees flatten too.
	if got := Conjuncts(bin(OpAnd, a, bin(OpAnd, b, bin(OpAnd, c, d)))); len(got) != 4 {
		t.Errorf("right-deep len = %d, want 4", len(got))
	}
	// No storage sharing: growing one result must not disturb another.
	cs2 := Conjuncts(e)
	_ = append(cs[:2], lit(0), lit(0))
	if cs2[2].String() != c.String() || cs2[3].String() != d.String() {
		t.Errorf("calls share backing storage: %v", cs2)
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) != nil")
	}
	if got := Conjuncts(a); len(got) != 1 || got[0].String() != a.String() {
		t.Errorf("single conjunct = %v", got)
	}
}

// predExpr is the benchmark predicate: a representative element-local
// selection predicate with a comparison conjunction.
func predExpr() Expr {
	return bin(OpAnd,
		bin(OpGt, name("year"), lit(2000)),
		bin(OpEq, name("name"), lit("SIGMOD")))
}

// TestCompiledPredicateZeroAlloc guards the hot path: evaluating a
// compiled predicate over an allocation-free env must not allocate.
func TestCompiledPredicateZeroAlloc(t *testing.T) {
	pred := CompilePred(predExpr())
	env := &compileEnv{year: graph.Int(2006), name: graph.String("SIGMOD")}
	allocs := testing.AllocsPerRun(1000, func() {
		ok, err := pred(env)
		if err != nil || !ok {
			t.Fatalf("pred = %v, %v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled predicate allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkCompiledPredicate compares the compiled closure against the
// tree-walking evaluator on the same predicate and environment.
func BenchmarkCompiledPredicate(b *testing.B) {
	e := predExpr()
	env := &compileEnv{year: graph.Int(2006), name: graph.String("SIGMOD")}
	b.Run("compiled", func(b *testing.B) {
		pred := CompilePred(e)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, err := pred(env); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, err := Holds(e, env); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// TestEqCrossKind: = compares values, not representations, so Int(1) =
// Float(1.0) holds in both the interpreted and the compiled form, with the
// Int on either side and from a literal or a name.
func TestEqCrossKind(t *testing.T) {
	env := MapEnv{"i": graph.Int(1), "f": graph.Float(1)}
	for _, e := range []Expr{
		bin(OpEq, lit(1), lit(1.0)),
		bin(OpEq, name("f"), lit(1)),
		bin(OpEq, name("i"), name("f")),
	} {
		if ok, err := Holds(e, env); !ok || err != nil {
			t.Errorf("Holds(%v) = %v, %v; want true", e, ok, err)
		}
		if ok, err := CompilePred(e)(env); !ok || err != nil {
			t.Errorf("CompilePred(%v) = %v, %v; want true", e, ok, err)
		}
	}
}
