package sqlbase

import (
	"reflect"
	"testing"
)

// FuzzParseSQL asserts the SQL parser's total-function contract over
// arbitrary input: parse or error, never panic, never hang. ParseSQL sits
// on an untrusted input path (PatternToSQL output fed back through
// MatchPattern, plus ad-hoc statements via Exec), so accepted statements
// must also survive a render/reparse round trip: ParseSQL(st.String())
// reproduces st exactly. That invariant is what caught the
// doubled-single-quote escape mismatch — PatternToSQL escaped quotes the
// lexer could not read back.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT a.b FROM t AS a;",
		"SELECT a.b, c.d FROM t AS a, u AS c WHERE a.b = c.d AND a.x <> 3;",
		"SELECT n.label FROM nodes AS n WHERE n.label = 'person';",
		"SELECT a.name FROM person AS a WHERE a.name = 'O''Brien';",
		"SELECT a.b FROM t WHERE a.b >= 1.5 AND a.b <= 2.25;",
		"select x.y from t as x where x.y != 'it''s';",
		"SELECT a.b FROM t AS a WHERE a.b = '';",
		"SELECT a.b FROM t AS a WHERE a.b = 'unterminated",
		"SELECT a.b FROM t AS a WHERE 1 = 1;",
		"SELECT where.x FROM where;",
		"SELECT a.b FROM as AS as WHERE a.b = 0.0;",
		"SELECT a.b FROM t trailing",
		"SELECT 1.2.3 FROM t;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		st, err := ParseSQL(src)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatal("nil statement without error")
		}
		rendered := st.String()
		st2, err := ParseSQL(rendered)
		if err != nil {
			t.Fatalf("rendering of accepted input does not reparse\ninput:    %q\nrendered: %q\nerror:    %v", src, rendered, err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("round trip changed the statement\ninput:    %q\nrendered: %q\nfirst:    %#v\nsecond:   %#v", src, rendered, st, st2)
		}
		// Rendering must be a fixed point: a second render is identical.
		if r2 := st2.String(); r2 != rendered {
			t.Fatalf("render not a fixed point: %q then %q", rendered, r2)
		}
	})
}
